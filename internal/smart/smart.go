// Package smart defines the SMART (Self-Monitoring, Analysis and Reporting
// Technology) attribute catalogue, the sample/record types shared by the
// whole library, and the feature sets used by the DSN'14 CART paper:
// the 12 "basic" features of Table II, the 19-feature set selected by
// expertise in the authors' earlier work, and the 13 "critical" features
// selected by non-parametric statistics in §IV-B.
package smart

import "fmt"

// AttrID is a SMART attribute identifier as reported by drives
// (e.g. 5 = Reallocated Sectors Count, 194 = Temperature Celsius).
type AttrID int

// The SMART attributes modelled by this library. The set mirrors the 23
// "meaningful" attributes the paper reads out of each SMART record (§IV-A).
const (
	RawReadErrorRate      AttrID = 1
	ThroughputPerformance AttrID = 2
	SpinUpTime            AttrID = 3
	StartStopCount        AttrID = 4
	ReallocatedSectors    AttrID = 5
	SeekErrorRate         AttrID = 7
	SeekTimePerformance   AttrID = 8
	PowerOnHours          AttrID = 9
	SpinRetryCount        AttrID = 10
	PowerCycleCount       AttrID = 12
	SATADownshiftErrors   AttrID = 183
	EndToEndError         AttrID = 184
	ReportedUncorrectable AttrID = 187
	CommandTimeout        AttrID = 188
	HighFlyWrites         AttrID = 189
	AirflowTemperature    AttrID = 190
	PowerOffRetractCount  AttrID = 192
	LoadCycleCount        AttrID = 193
	TemperatureCelsius    AttrID = 194
	HardwareECCRecovered  AttrID = 195
	CurrentPendingSectors AttrID = 197
	OfflineUncorrectable  AttrID = 198
	UDMACRCErrorCount     AttrID = 199
)

// AttrInfo describes one catalogued SMART attribute.
type AttrInfo struct {
	ID   AttrID
	Name string
	// HigherIsBetter reports whether larger normalized values indicate a
	// healthier drive. This holds for every attribute in the catalogue
	// (normalized SMART values decay from ~100/200 toward the threshold),
	// but raw values move the other way for error counters.
	HigherIsBetter bool
	// Counter reports whether the raw value is a monotonically
	// non-decreasing event counter (e.g. reallocated sectors) as opposed
	// to an instantaneous measurement (e.g. temperature).
	Counter bool
}

// Catalogue lists, in canonical order, every attribute carried by a Record.
// The order defines the layout of Record.Normalized and Record.Raw.
var Catalogue = []AttrInfo{
	{RawReadErrorRate, "Raw Read Error Rate", true, true},
	{ThroughputPerformance, "Throughput Performance", true, false},
	{SpinUpTime, "Spin Up Time", true, false},
	{StartStopCount, "Start/Stop Count", true, true},
	{ReallocatedSectors, "Reallocated Sectors Count", true, true},
	{SeekErrorRate, "Seek Error Rate", true, true},
	{SeekTimePerformance, "Seek Time Performance", true, false},
	{PowerOnHours, "Power On Hours", true, true},
	{SpinRetryCount, "Spin Retry Count", true, true},
	{PowerCycleCount, "Power Cycle Count", true, true},
	{SATADownshiftErrors, "SATA Downshift Error Count", true, true},
	{EndToEndError, "End-to-End Error", true, true},
	{ReportedUncorrectable, "Reported Uncorrectable Errors", true, true},
	{CommandTimeout, "Command Timeout", true, true},
	{HighFlyWrites, "High Fly Writes", true, true},
	{AirflowTemperature, "Airflow Temperature", true, false},
	{PowerOffRetractCount, "Power-off Retract Count", true, true},
	{LoadCycleCount, "Load Cycle Count", true, true},
	{TemperatureCelsius, "Temperature Celsius", true, false},
	{HardwareECCRecovered, "Hardware ECC Recovered", true, true},
	{CurrentPendingSectors, "Current Pending Sector Count", true, true},
	{OfflineUncorrectable, "Offline Uncorrectable Sector Count", true, true},
	{UDMACRCErrorCount, "UltraDMA CRC Error Count", true, true},
}

// NumAttrs is the number of catalogued attributes carried by each Record.
var NumAttrs = len(Catalogue)

// attrSlot maps an AttrID below len(attrSlot) to 1 + its position in
// Catalogue; 0 marks an uncatalogued ID. An array table rather than a
// map: feature extraction resolves attributes on every record.
var attrSlot = func() (t [256]uint8) {
	for i, a := range Catalogue {
		t[a.ID] = uint8(i + 1)
	}
	return t
}()

// Index returns the position of id within the Catalogue (and therefore
// within Record.Normalized / Record.Raw). The second result is false if the
// attribute is not catalogued.
func Index(id AttrID) (int, bool) {
	if uint(id) >= uint(len(attrSlot)) || attrSlot[id] == 0 {
		return 0, false
	}
	return int(attrSlot[id]) - 1, true
}

// Info returns the catalogue entry for id.
func Info(id AttrID) (AttrInfo, bool) {
	i, ok := Index(id)
	if !ok {
		return AttrInfo{}, false
	}
	return Catalogue[i], true
}

// Name returns the human-readable attribute name, or "SMART <id>" for
// attributes outside the catalogue.
func Name(id AttrID) string {
	if info, ok := Info(id); ok {
		return info.Name
	}
	return fmt.Sprintf("SMART %d", int(id))
}

// Record is one hourly SMART reading of one drive. Normalized values follow
// the SMART convention of ranging over 1..253 (larger is healthier); raw
// values are vendor-specific counters or measurements. Both slices use the
// Catalogue order.
type Record struct {
	// Hour is the absolute sample time, in hours since the observation
	// period began.
	Hour int
	// Normalized holds the 1..253 normalized attribute values.
	Normalized [23]float64
	// Raw holds the vendor raw values.
	Raw [23]float64
}

// NormalizedOf returns the normalized value of attribute id.
func (r *Record) NormalizedOf(id AttrID) float64 {
	i, ok := Index(id)
	if !ok {
		return 0
	}
	return r.Normalized[i]
}

// RawOf returns the raw value of attribute id.
func (r *Record) RawOf(id AttrID) float64 {
	i, ok := Index(id)
	if !ok {
		return 0
	}
	return r.Raw[i]
}

// Kind distinguishes the three feature kinds a model input can draw from a
// SMART record stream.
type Kind int

const (
	// Normalized selects the 1..253 normalized attribute value.
	Normalized Kind = iota + 1
	// Raw selects the vendor raw value.
	Raw
	// ChangeRate selects the difference between the current value and the
	// value IntervalHours earlier (normalized or raw according to
	// RateOfRaw). The paper uses 6-hour change rates (§IV-B).
	ChangeRate
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Normalized:
		return "normalized"
	case Raw:
		return "raw"
	case ChangeRate:
		return "rate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Feature describes one model input column.
type Feature struct {
	Attr AttrID
	Kind Kind
	// IntervalHours is the change-rate interval; meaningful only when
	// Kind == ChangeRate.
	IntervalHours int
	// RateOfRaw selects the raw (rather than normalized) value stream for
	// a ChangeRate feature.
	RateOfRaw bool
}

// String returns a compact human-readable description such as
// "Reported Uncorrectable Errors", "Reallocated Sectors Count (raw)" or
// "Δ6h Hardware ECC Recovered".
func (f Feature) String() string {
	switch f.Kind {
	case Raw:
		return Name(f.Attr) + " (raw)"
	case ChangeRate:
		src := ""
		if f.RateOfRaw {
			src = " (raw)"
		}
		return fmt.Sprintf("Δ%dh %s%s", f.IntervalHours, Name(f.Attr), src)
	default:
		return Name(f.Attr)
	}
}

// FeatureSet is an ordered list of model input columns.
type FeatureSet []Feature

// Names returns the String() form of every feature, in order.
func (fs FeatureSet) Names() []string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.String()
	}
	return names
}

// MaxInterval returns the largest change-rate interval used by the set,
// i.e. the history depth (in hours) needed before the first feature vector
// can be extracted. It returns 0 when the set uses no change rates.
func (fs FeatureSet) MaxInterval() int {
	maxIv := 0
	for _, f := range fs {
		if f.Kind == ChangeRate && f.IntervalHours > maxIv {
			maxIv = f.IntervalHours
		}
	}
	return maxIv
}

// BasicFeatures returns the 12 preliminarily selected features of the
// paper's Table II: ten normalized values plus the raw values of
// Reallocated Sectors Count and Current Pending Sector Count.
func BasicFeatures() FeatureSet {
	return FeatureSet{
		{Attr: RawReadErrorRate, Kind: Normalized},
		{Attr: SpinUpTime, Kind: Normalized},
		{Attr: ReallocatedSectors, Kind: Normalized},
		{Attr: SeekErrorRate, Kind: Normalized},
		{Attr: PowerOnHours, Kind: Normalized},
		{Attr: ReportedUncorrectable, Kind: Normalized},
		{Attr: HighFlyWrites, Kind: Normalized},
		{Attr: TemperatureCelsius, Kind: Normalized},
		{Attr: HardwareECCRecovered, Kind: Normalized},
		{Attr: CurrentPendingSectors, Kind: Normalized},
		{Attr: ReallocatedSectors, Kind: Raw},
		{Attr: CurrentPendingSectors, Kind: Raw},
	}
}

// CriticalFeatures returns the 13 features the paper selects with
// non-parametric statistics (§IV-B): the basic set minus both Current
// Pending Sector Count columns, plus the 6-hour change rates of Raw Read
// Error Rate, Hardware ECC Recovered and the raw Reallocated Sectors Count.
//
// This is the paper's published outcome; the featsel package re-derives a
// selection of this shape from data.
func CriticalFeatures() FeatureSet {
	return FeatureSet{
		{Attr: RawReadErrorRate, Kind: Normalized},
		{Attr: SpinUpTime, Kind: Normalized},
		{Attr: ReallocatedSectors, Kind: Normalized},
		{Attr: SeekErrorRate, Kind: Normalized},
		{Attr: PowerOnHours, Kind: Normalized},
		{Attr: ReportedUncorrectable, Kind: Normalized},
		{Attr: HighFlyWrites, Kind: Normalized},
		{Attr: TemperatureCelsius, Kind: Normalized},
		{Attr: HardwareECCRecovered, Kind: Normalized},
		{Attr: ReallocatedSectors, Kind: Raw},
		{Attr: RawReadErrorRate, Kind: ChangeRate, IntervalHours: 6},
		{Attr: HardwareECCRecovered, Kind: ChangeRate, IntervalHours: 6},
		{Attr: ReallocatedSectors, Kind: ChangeRate, IntervalHours: 6, RateOfRaw: true},
	}
}

// ExpertFeatures returns the 19-feature set "selected by expertise" in the
// authors' earlier BP ANN work [11], used as one of the three comparison
// sets in Table III. The DSN'14 paper does not enumerate it, so this is our
// instantiation (documented in DESIGN.md): the 12 basic features plus four
// additional normalized attributes and three 24-hour change rates.
func ExpertFeatures() FeatureSet {
	return append(BasicFeatures(),
		Feature{Attr: SpinRetryCount, Kind: Normalized},
		Feature{Attr: OfflineUncorrectable, Kind: Normalized},
		Feature{Attr: UDMACRCErrorCount, Kind: Normalized},
		Feature{Attr: CommandTimeout, Kind: Normalized},
		Feature{Attr: SeekErrorRate, Kind: ChangeRate, IntervalHours: 24},
		Feature{Attr: TemperatureCelsius, Kind: ChangeRate, IntervalHours: 24},
		Feature{Attr: CurrentPendingSectors, Kind: ChangeRate, IntervalHours: 24, RateOfRaw: true},
	)
}

// Value-domain bounds for corruption checks. Normalized SMART values live
// in 1..253 by convention, with 0 and 254/255 appearing as sentinel or
// vendor quirks; raw values are non-negative counters/measurements that fit
// in 48 bits on every real drive. Anything outside these bounds (or
// non-finite) is telemetry corruption, not drive state.
const (
	// MaxNormalized is the largest normalized value a collector can emit.
	MaxNormalized = 255
	// MaxRaw bounds raw counters (48-bit SMART raw fields < 2.9e14).
	MaxRaw = 1e15
)

// ValidNormalized reports whether v is a plausible normalized SMART value:
// finite and within [0, MaxNormalized].
func ValidNormalized(v float64) bool {
	return v >= 0 && v <= MaxNormalized // false for NaN
}

// ValidRaw reports whether v is a plausible raw SMART value: finite and
// within [0, MaxRaw].
func ValidRaw(v float64) bool {
	return v >= 0 && v <= MaxRaw // false for NaN
}

// CorruptValues counts the attribute values of r that no healthy collector
// emits: NaN, ±Inf, negative, or outside the attribute domain. A zero
// return means the record is clean.
func (r *Record) CorruptValues() int {
	bad := 0
	for i := range r.Normalized {
		if !ValidNormalized(r.Normalized[i]) {
			bad++
		}
		if !ValidRaw(r.Raw[i]) {
			bad++
		}
	}
	return bad
}

// SanitizeTrace drops the records of a chronological per-drive trace that
// offline pipelines must not score: records carrying corrupt values and
// records whose Hour does not strictly advance (duplicates and
// out-of-order arrivals). It returns the surviving records and the number
// dropped. A clean trace is returned as-is with no copy, so sanitizing
// well-formed data is free.
func SanitizeTrace(recs []Record) ([]Record, int) {
	for i := range recs {
		if badSample(recs, i) {
			// First offender: copy the clean prefix, then filter the rest.
			out := make([]Record, i, len(recs))
			copy(out, recs[:i])
			for j := i; j < len(recs); j++ {
				r := recs[j]
				if r.CorruptValues() > 0 {
					continue
				}
				if n := len(out); n > 0 && r.Hour <= out[n-1].Hour {
					continue
				}
				out = append(out, r)
			}
			return out, len(recs) - len(out)
		}
	}
	return recs, 0
}

// badSample reports whether recs[i] would be dropped by SanitizeTrace
// given that recs[:i] is clean.
func badSample(recs []Record, i int) bool {
	if recs[i].CorruptValues() > 0 {
		return true
	}
	return i > 0 && recs[i].Hour <= recs[i-1].Hour
}
