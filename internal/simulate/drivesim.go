package simulate

import (
	"math"
	"math/rand"

	"hddcart/internal/smart"
)

// modeAmp holds the degradation amplitudes of one failure mode: how far
// each signal attribute is driven by the end of the deterioration window
// (at severity 1). Normalized-value amplitudes are in SMART points; raw
// amplitudes are total counter increments; tempC is degrees Celsius.
type modeAmp struct {
	rrer, hec, ser, sut float64 // normalized-point wear at p=1
	tempC               float64 // °C rise at p=1
	rueRaw              float64 // total Reported Uncorrectable count
	rscRaw              float64 // total Reallocated Sectors count
	hfwRaw              float64 // total High Fly Writes count
	pendBurst           float64 // pending-sector burst multiplier
}

// modeAmps indexes amplitude sets by FailureMode.
var modeAmps = [numModes]modeAmp{
	ModeUncorrectable: {rrer: 6, hec: 8, ser: 3, sut: 1, tempC: 1.5, rueRaw: 60, rscRaw: 40, hfwRaw: 3, pendBurst: 2},
	ModeMedia:         {rrer: 28, hec: 24, ser: 5, sut: 1, tempC: 1.5, rueRaw: 15, rscRaw: 80, hfwRaw: 4, pendBurst: 3},
	ModeRealloc:       {rrer: 5, hec: 6, ser: 3, sut: 1, tempC: 1.5, rueRaw: 8, rscRaw: 420, hfwRaw: 2, pendBurst: 5},
	ModeThermal:       {rrer: 3, hec: 3, ser: 3, sut: 2, tempC: 12, rueRaw: 5, rscRaw: 30, hfwRaw: 1, pendBurst: 1.5},
	ModeSeek:          {rrer: 5, hec: 4, ser: 28, sut: 2, tempC: 1.5, rueRaw: 6, rscRaw: 25, hfwRaw: 2, pendBurst: 1.5},
	ModeSpinUp:        {rrer: 3, hec: 3, ser: 4, sut: 26, tempC: 2, rueRaw: 5, rscRaw: 20, hfwRaw: 1, pendBurst: 1},
	ModeAbrupt:        {rrer: 15, hec: 12, ser: 8, sut: 5, tempC: 3, rueRaw: 12, rscRaw: 30, hfwRaw: 3, pendBurst: 4},
	ModeSilent:        {rrer: 0.5, hec: 0.5, ser: 0.3, sut: 0.2, tempC: 0.3, rueRaw: 0, rscRaw: 1, hfwRaw: 0, pendBurst: 0.2},
}

// personality holds the per-drive random baseline offsets drawn once at
// trace start.
type personality struct {
	offRRER, offHEC, offSER, offSUT float64
	offThroughput, offSeekTime      float64
	offTemp                         float64
	ageHours                        float64 // power-on age at period start
	severity                        float64 // degradation-speed multiplier
	errorProne                      bool    // chronically elevated benign errors
}

// driveSim generates one drive's trace hour by hour.
type driveSim struct {
	rng *rand.Rand
	d   *Drive
	fam *FamilyParams
	per personality

	// counters (raw values)
	rscRaw, rueRaw, hfwRaw, crcRaw   float64
	offlineRaw, timeoutRaw           float64
	pending                          float64 // current pending sectors
	startStop, powerCycle, loadCycle float64
	porc, downshift, endToEnd        float64
	spinRetry                        float64

	// benign episode state
	episodeLeft  int
	episodeDepth float64
}

func newDriveSim(d *Drive, fam *FamilyParams) *driveSim {
	s := &driveSim{
		rng: rand.New(rand.NewSource(d.seed)),
		d:   d,
		fam: fam,
	}
	s.initPersonality()
	return s
}

func (s *driveSim) initPersonality() {
	rng, fam := s.rng, s.fam
	os := fam.OffsetScale
	p := &s.per
	p.offRRER = rng.NormFloat64() * 1.6 * os
	p.offHEC = rng.NormFloat64() * 1.8 * os
	p.offSER = rng.NormFloat64() * 2.2 * os
	p.offSUT = rng.NormFloat64() * 1.0 * os
	p.offThroughput = rng.NormFloat64() * 2.0 * os
	p.offSeekTime = rng.NormFloat64() * 2.0 * os
	p.offTemp = rng.NormFloat64() * 1.2 * os
	p.severity = math.Exp(rng.NormFloat64() * 0.5)
	if p.severity < 0.6 {
		p.severity = 0.6
	}
	if p.severity > 2.5 {
		p.severity = 2.5
	}
	p.errorProne = rng.Float64() < fam.ErrorProneFrac

	mean := fam.AgeMeanGood
	if s.d.Failed {
		mean = fam.AgeMeanFailed
	}
	// Power-on age: log-normal-ish, clipped to a realistic range.
	p.ageHours = mean * math.Exp(rng.NormFloat64()*0.55)
	if p.ageHours > 45000 {
		p.ageHours = 45000
	}
	if p.ageHours < 200 {
		p.ageHours = 200
	}

	// Accumulated benign wear from the drive's life before the
	// observation period: initialize the event counters so traces do not
	// all start from pristine zeros. Error-prone drives carry a mildly
	// (2×) elevated history — their chronic behaviour shows mostly in
	// runtime event rates, not in a give-away starting level.
	preExposure := math.Min(p.ageHours, 20000) * 0.2
	proneInit := 1.0
	if p.errorProne {
		proneInit = 2
	}
	s.rscRaw = float64(s.poisson(preExposure * 0.0005 * proneInit))
	s.rueRaw = float64(s.poisson(preExposure * 2e-5 * proneInit))
	s.hfwRaw = float64(s.poisson(preExposure * 3e-4))
	s.crcRaw = float64(s.poisson(preExposure * 2e-4))
	s.offlineRaw = math.Round(s.rscRaw * 0.4)
	s.startStop = math.Round(p.ageHours / 200)
	s.powerCycle = math.Round(p.ageHours / 250)
	s.loadCycle = math.Round(p.ageHours / 30)
	s.porc = math.Round(p.ageHours / 300)
}

// benignRSCRate is the per-hour benign reallocation hazard at absolute hour
// h, including fleet-aging drift and the error-prone multiplier.
func (s *driveSim) benignRSCRate(h int) float64 {
	rate := 0.0005 * (1 + s.fam.DriftEventFactor*driftFrac(h))
	if s.per.errorProne {
		rate *= 8
	}
	return rate
}

// benignRUERate is the analogous hazard for uncorrectable errors.
func (s *driveSim) benignRUERate(h int) float64 {
	rate := 2e-5 * (1 + s.fam.DriftEventFactor*driftFrac(h))
	if s.per.errorProne {
		rate *= 10
	}
	return rate
}

// progress returns the degradation progress p ∈ [0,1] at absolute hour h:
// 0 before the deterioration window opens, 1 at the failure instant.
func (s *driveSim) progress(h int) float64 {
	if !s.d.Failed {
		return 0
	}
	start := s.d.FailHour - s.d.Window
	if h < start {
		return 0
	}
	p := float64(h-start) / float64(s.d.Window)
	if p > 1 {
		p = 1
	}
	return p
}

// wear maps progress to the concave wear curve p^0.55: degradation becomes
// visible early in the window and keeps growing, which is what gives the
// models their long time-in-advance (paper Figs. 3–4).
func wear(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return math.Pow(p, 0.55)
}

// run generates the records of hours [start, end), applying sampling
// dropout. The final record of a failed drive's trace is always kept.
func (s *driveSim) run(start, end int) []smart.Record {
	out := make([]smart.Record, 0, end-start)
	for h := start; h < end; h++ {
		rec := s.step(h)
		last := s.d.Failed && h == end-1
		if !last && s.rng.Float64() < s.fam.DropoutRate {
			continue // lost sample
		}
		out = append(out, rec)
	}
	return out
}

// step advances the simulation one hour and produces that hour's record.
func (s *driveSim) step(h int) smart.Record {
	rng, fam, per := s.rng, s.fam, &s.per
	ns := fam.NoiseScale
	drift := fam.DriftNorm * driftFrac(h)

	// Benign episode lifecycle.
	if s.episodeLeft > 0 {
		s.episodeLeft--
	} else {
		rate := fam.EpisodeRate * (1 + fam.DriftEventFactor*driftFrac(h))
		if per.errorProne {
			rate *= 5
		}
		if rng.Float64() < rate {
			s.episodeLeft = 1 + int(rng.ExpFloat64()*(fam.EpisodeMeanHours-1))
			s.episodeDepth = math.Abs(rng.NormFloat64())*fam.EpisodeDepthSd + 1.5
		}
	}
	ep := 0.0
	if s.episodeLeft > 0 {
		ep = s.episodeDepth
	}

	// Degradation.
	p := s.progress(h)
	w := wear(p) * per.severity
	amp := modeAmps[0]
	var degRate float64 // d(wear)/dh, used for counter growth
	if s.d.Failed {
		amp = modeAmps[s.d.Mode]
		if p > 0 {
			// d/dh of p^1.7 — counters accumulate with a convex
			// profile so raw growth accelerates toward failure.
			degRate = 1.7 * math.Pow(p, 0.7) / float64(s.d.Window) * per.severity
		}
	}

	// Counter updates (benign + episode + degradation contributions).
	rscLambda := s.benignRSCRate(h)
	rueLambda := s.benignRUERate(h)
	hfwLambda := 3e-4 * (1 + fam.DriftEventFactor*driftFrac(h))
	// Pending sectors churn constantly in healthy drives (they appear
	// and resolve), which is what makes Current Pending Sector Count a
	// weak predictor that the paper's statistical selection discards.
	pendLambda := 0.035
	if ep > 0 {
		rscLambda += 0.06
		rueLambda += 0.004
		hfwLambda += 0.01
		pendLambda += 0.3
	}
	if s.d.Failed && p > 0 {
		rscLambda += amp.rscRaw * degRate
		rueLambda += amp.rueRaw * degRate
		hfwLambda += amp.hfwRaw * degRate
		pendLambda += amp.pendBurst * 0.01 * w
	}
	rscInc := float64(s.poisson(rscLambda))
	s.rscRaw += rscInc
	s.rueRaw += float64(s.poisson(rueLambda))
	s.hfwRaw += float64(s.poisson(hfwLambda))
	s.crcRaw += float64(s.poissonExp(expCRC))
	s.timeoutRaw += float64(s.poisson(5e-5 + 0.002*w))
	s.offlineRaw += float64(s.poisson(0.4 * rscLambda))
	if s.d.Failed && s.d.Mode == ModeSpinUp {
		s.spinRetry += float64(s.poisson(3 * degRate))
	}
	// Pending sectors appear and mostly resolve (into reallocations or
	// recoveries), so Current Pending Sector Count is a deliberately
	// noisy, weakly informative attribute — the statistical feature
	// selection excludes it, as in the paper.
	s.pending = s.pending*0.96 + float64(s.poisson(pendLambda))
	s.startStop += float64(s.poissonExp(expStartStop))
	s.powerCycle += float64(s.poissonExp(expPowerCycle))
	s.loadCycle += float64(s.poissonExp(expLoadCycle))
	s.porc += float64(s.poissonExp(expPORC))
	s.downshift += float64(s.poissonExp(expDownshift))
	s.endToEnd += float64(s.poissonExp(expEndToEnd))

	// Temperature (diurnal cycle + fleet drift + thermal degradation).
	tempC := fam.TempBase + per.offTemp +
		1.2*math.Sin(2*math.Pi*float64(h)/24) +
		fam.TempDrift*driftFrac(h) +
		amp.tempC*w +
		rng.NormFloat64()*0.6*ns
	if ep > 0 {
		tempC += 0.15 * ep
	}

	age := per.ageHours + float64(h)

	var rec smart.Record
	rec.Hour = h
	set := func(id smart.AttrID, norm, raw float64) {
		i, ok := smart.Index(id)
		if !ok {
			return
		}
		rec.Normalized[i] = clampNorm(norm)
		rec.Raw[i] = raw
	}

	set(smart.RawReadErrorRate,
		100+per.offRRER-0.35*drift-0.55*ep-amp.rrer*w+rng.NormFloat64()*0.8*ns,
		s.rueRaw*3+s.rscRaw*0.5) // vendor-specific raw; loosely error-linked
	set(smart.ThroughputPerformance, 100+per.offThroughput+rng.NormFloat64()*1.5*ns, 0)
	set(smart.SpinUpTime,
		97+per.offSUT-0.05*drift-0.1*ep-amp.sut*w+rng.NormFloat64()*0.5*ns,
		420+10*amp.sut*w+rng.NormFloat64()*4)
	set(smart.StartStopCount, clampNorm(100-s.startStop/50), s.startStop)
	set(smart.ReallocatedSectors, 100-0.06*s.rscRaw, s.rscRaw)
	set(smart.SeekErrorRate,
		fam.SeekBase+per.offSER-0.25*drift-0.4*ep-amp.ser*w+rng.NormFloat64()*1.0*ns,
		s.rscRaw*2+s.hfwRaw)
	set(smart.SeekTimePerformance, 100+per.offSeekTime+rng.NormFloat64()*1.2*ns, 0)
	set(smart.PowerOnHours, 100-age/600, age)
	set(smart.SpinRetryCount, 100-10*s.spinRetry, s.spinRetry)
	set(smart.PowerCycleCount, clampNorm(100-s.powerCycle/40), s.powerCycle)
	set(smart.SATADownshiftErrors, 100-s.downshift, s.downshift)
	set(smart.EndToEndError, 100-s.endToEnd, s.endToEnd)
	set(smart.ReportedUncorrectable, 100-2.5*s.rueRaw, s.rueRaw)
	set(smart.CommandTimeout, 100-0.5*s.timeoutRaw, s.timeoutRaw)
	set(smart.HighFlyWrites, 100-1.0*s.hfwRaw, s.hfwRaw)
	set(smart.AirflowTemperature, 100-(tempC-3), tempC-3+rng.NormFloat64()*0.3)
	set(smart.PowerOffRetractCount, clampNorm(100-s.porc/20), s.porc)
	set(smart.LoadCycleCount, clampNorm(100-s.loadCycle/600), s.loadCycle)
	set(smart.TemperatureCelsius, 100-tempC, tempC)
	set(smart.HardwareECCRecovered,
		95+per.offHEC-0.4*drift-0.7*ep-amp.hec*w+rng.NormFloat64()*1.0*ns,
		s.rueRaw*20+float64(h%97)) // rolling vendor counter, uninformative raw
	set(smart.CurrentPendingSectors, 100-0.8*s.pending, math.Round(s.pending))
	set(smart.OfflineUncorrectable, 100-0.8*s.offlineRaw, s.offlineRaw)
	set(smart.UDMACRCErrorCount, 100-0.5*s.crcRaw, s.crcRaw)

	return rec
}

// clampNorm clamps a normalized SMART value to its legal 1..253 range.
func clampNorm(v float64) float64 {
	if v < 1 {
		return 1
	}
	if v > 253 {
		return 253
	}
	return v
}

// poisson draws a Poisson count. Knuth's method for small lambda, a normal
// approximation above 30.
func (s *driveSim) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*s.rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	return s.poissonExp(math.Exp(-lambda))
}

// The exponentials of the seven constant rates step draws every hour,
// computed once: math.Exp dominated those draws.
var (
	expCRC        = math.Exp(-2e-4)
	expStartStop  = math.Exp(-1.0 / 200)
	expPowerCycle = math.Exp(-1.0 / 250)
	expLoadCycle  = math.Exp(-1.0 / 30)
	expPORC       = math.Exp(-1.0 / 300)
	expDownshift  = math.Exp(-1e-5)
	expEndToEnd   = math.Exp(-5e-6)
)

// poissonExp draws a Poisson variate by Knuth's product method given
// l = exp(-λ) for 0 < λ ≤ 30.
func (s *driveSim) poissonExp(l float64) int {
	k := 0
	p := 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
