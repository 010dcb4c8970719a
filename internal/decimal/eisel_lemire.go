// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by the following BSD-style
// license:
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package decimal

// This file is ported from the Go standard library's
// strconv/eisel_lemire.go: the float64 flavor of the Eisel–Lemire
// algorithm, restricted to the powers 10^0 … 10^-MaxFrac a fraction
// needs, with the sign left to the caller. The algorithm is discussed at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html, whose section
// names the terse comments below follow.

import (
	"math"
	"math/bits"
)

// EiselLemire returns man/10^k correctly rounded, or false when k is
// past MaxFrac or the 128-bit product cannot tell which way the value
// rounds, on or next to a double or a halfway point between two.
func EiselLemire(man uint64, k int) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		return 0, true
	}
	if uint(k) >= uint(len(pow128)) {
		return 0, false
	}
	exp10 := -k

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow128[k][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow128[k][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF), true
}

// pow128[k] holds {lo, hi}, the 128-bit mantissa of 10^-k rounded down:
// 10^-k ≈ (hi<<64 | lo) · 2^e with the top bit of hi set, e implied by
// the slope 217706/65536 ≈ log2(10) as in EiselLemire. The rows are
// strconv's detailedPowersOfTen rows for 1e0 … 1e-40, in that order;
// TestPow128 recomputes each one with math/big.
var pow128 = [...][2]uint64{
	{0x0000000000000000, 0x8000000000000000}, // 1e0
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x88F4BB1CA6BCF584, 0xBCE5086492111AEA}, // 1e-20
	{0xD3F6FC16EBCA5E03, 0x971DA05074DA7BEE}, // 1e-21
	{0x5324C68B12DD6338, 0xF1C90080BAF72CB1}, // 1e-22
	{0x75B7053C0F178293, 0xC16D9A0095928A27}, // 1e-23
	{0xC4926A9672793542, 0x9ABE14CD44753B52}, // 1e-24
	{0x3A83DDBD83F52204, 0xF79687AED3EEC551}, // 1e-25
	{0x95364AFE032A819D, 0xC612062576589DDA}, // 1e-26
	{0x775EA264CF55347D, 0x9E74D1B791E07E48}, // 1e-27
	{0x8BCA9D6E188853FC, 0xFD87B5F28300CA0D}, // 1e-28
	{0x096EE45813A04330, 0xCAD2F7F5359A3B3E}, // 1e-29
	{0xA1258379A94D028D, 0xA2425FF75E14FC31}, // 1e-30
	{0x80EACF948770CED7, 0x81CEB32C4B43FCF4}, // 1e-31
	{0x67DE18EDA5814AF2, 0xCFB11EAD453994BA}, // 1e-32
	{0xECB1AD8AEACDD58E, 0xA6274BBDD0FADD61}, // 1e-33
	{0xBD5AF13BEF0B113E, 0x84EC3C97DA624AB4}, // 1e-34
	{0x955E4EC64B44E864, 0xD4AD2DBFC3D07787}, // 1e-35
	{0xDDE50BD1D5D0B9E9, 0xAA242499697392D2}, // 1e-36
	{0x7E50D64177DA2E54, 0x881CEA14545C7575}, // 1e-37
	{0x96E7BD358C904A21, 0xD9C7DCED53C72255}, // 1e-38
	{0xABEC975E0A0D081A, 0xAE397D8AA96C1B77}, // 1e-39
	{0x2323AC4B3B3DA015, 0x8B61313BBABCE2C6}, // 1e-40
}
