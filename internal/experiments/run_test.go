package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hddcart/internal/detect"
)

// smallConfig is a fleet small enough for CI but large enough that every
// experiment has data in both classes.
func smallConfig() Config {
	return Config{Seed: 3, GoodScale: 0.02, FailedScale: 0.15, ANNEpochs: 40}
}

// smallGolden holds every report TestRunAllExperimentsSmall prints, with
// the wall-clock fields masked by maskWallClock.
const smallGolden = "testdata/small.golden"

// wallClock matches the three report fields that measure elapsed time: the
// registry's per-experiment trailer, the forest's training time and the
// boosting experiment's training-cost line.
var wallClock = []struct {
	re   *regexp.Regexp
	mask string
}{
	{regexp.MustCompile(`(?m)^\([0-9.]+s\)$`), "(T.Ts)"},
	{regexp.MustCompile(`trained in [0-9.]+s`), "trained in T.Ts"},
	{regexp.MustCompile(`training cost: CT [0-9.]+s, AdaBoost \(([0-9]+) rounds\) [0-9.]+s \([0-9.]+×\)`),
		"training cost: CT T.Ts, AdaBoost ($1 rounds) T.Ts (R.R×)"},
}

// maskWallClock replaces every wall-clock field of the report text with a
// fixed token, so the rest can be compared byte for byte.
func maskWallClock(s string) string {
	for _, w := range wallClock {
		s = w.re.ReplaceAllString(s, w.mask)
	}
	return s
}

// splitReports maps each experiment ID to its report text, header line
// through trailing blank line.
func splitReports(s string) map[string]string {
	out := make(map[string]string)
	id := ""
	for _, line := range strings.SplitAfter(s, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			if colon := strings.IndexByte(rest, ':'); colon > 0 {
				id = rest[:colon]
			}
		}
		out[id] += line
	}
	return out
}

// TestRunAllExperimentsSmall runs every experiment on smallConfig and
// compares each report against smallGolden. The results are promised not
// to depend on how many goroutines compute them, so any change to a worker
// pool, a fold order or a model shows up here as a diff.
func TestRunAllExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	ids := IDs()
	if raceDetectorEnabled {
		// Race instrumentation makes the full 21-experiment sweep blow the
		// default go test timeout, so run a subset that still drives every
		// par.For loop the experiments reach: Table1's trace fan-out
		// (table1); forEachTrace's dataset assembly, parallel CT training,
		// the test-set build and scan's detect.ScanBatch (table3);
		// votingCurve (figure5); the updating FAR pass and the failed-only
		// FDR scan (figure8); forest tree training and boosting's scoring
		// chunks; the storage simulator; and the serial reports table2
		// and figure12. Each report is still compared with its section
		// of smallGolden.
		ids = []string{
			"table1", "table2", "table3", "figure5", "figure8",
			"figure12", "forest", "boost", "storagesim",
		}
	}
	golden, err := os.ReadFile(smallGolden)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Run(smallConfig(), ids, &buf); err != nil {
		t.Fatal(err)
	}
	out := maskWallClock(buf.String())
	got, want := splitReports(out), splitReports(string(golden))
	for _, id := range ids {
		if got[id] != want[id] {
			t.Errorf("report %q differs from %s\ngot:\n%s\nwant:\n%s", id, smallGolden, got[id], want[id])
		}
	}
	if !raceDetectorEnabled && !t.Failed() && out != string(golden) {
		t.Errorf("output differs from %s outside the reports:\n%s", smallGolden, out)
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	err := Run(smallConfig(), []string{"table99"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v", err)
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	if _, err := NewEnv(Config{Workers: -1}); err == nil || !strings.Contains(err.Error(), "negative Workers") {
		t.Errorf("err = %v", err)
	}
}

func TestMaxBinsRejected(t *testing.T) {
	for _, mb := range []int{-1, 256} {
		if _, err := NewEnv(Config{MaxBins: mb}); err == nil || !strings.Contains(err.Error(), "MaxBins") {
			t.Errorf("MaxBins %d: err = %v, want range error", mb, err)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(Config{Seed: 1}, []string{"table2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Reallocated Sectors Count") {
		t.Error("table2 output missing attributes")
	}
	if strings.Contains(buf.String(), "== table1:") {
		t.Error("unselected experiment ran")
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 21 {
		t.Fatalf("%d experiments registered, want 21", len(ids))
	}
	if ids[0] != "table1" || ids[len(ids)-1] != "storagesim" {
		t.Errorf("unexpected registry order: %v", ids)
	}
}

func TestRunWithChartsWritesSVGs(t *testing.T) {
	dir := t.TempDir()
	env, err := NewEnv(Config{Seed: 2, GoodScale: 0.002, FailedScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := env.RunWithCharts([]string{"figure12"}, &buf, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure12.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("figure12.svg is not an SVG")
	}
}

func TestGoodSamplesPerDrive(t *testing.T) {
	cases := []struct {
		good, failed float64
		want         int
	}{
		{1, 1, 3},        // paper scale: the paper's 3 samples/drive
		{0.2, 0.5, 8},    // default reproduction scale: 3·2.5 = 7.5 → 8
		{0.02, 0.15, 22}, // 22.4999… under float division
		{0.001, 1, 40},   // clamped
		{1, 0.001, 3},    // never below 3
	}
	for _, tc := range cases {
		e := &Env{cfg: Config{GoodScale: tc.good, FailedScale: tc.failed}}
		if got := e.goodSamplesPerDrive(); got != tc.want {
			t.Errorf("scales %g/%g: k = %d, want %d", tc.good, tc.failed, got, tc.want)
		}
	}
}

func TestUpdatingRanges(t *testing.T) {
	ranges, err := updatingRanges()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[weekRange]bool)
	for _, wr := range ranges {
		if wr.start < 1 || wr.end > 7 || wr.start > wr.end {
			t.Errorf("bad training range %+v", wr)
		}
		if seen[wr] {
			t.Errorf("duplicate range %+v", wr)
		}
		seen[wr] = true
	}
	// The fixed/early ranges must include week 1 alone, and 1-week
	// replacing needs every single week up to 7.
	for w := 1; w <= 7; w++ {
		if !seen[weekRange{w, w}] {
			t.Errorf("missing single-week range %d", w)
		}
	}
}

// TestUpdatingMissingModelIsError checks that a training range with no
// trained model fails runUpdating with an error before any drive is
// scanned, instead of handing the FAR pass a detector without a model.
func TestUpdatingMissingModelIsError(t *testing.T) {
	e := &Env{cfg: Config{Seed: 1}.withDefaults()}
	ranges, err := updatingRanges()
	if err != nil {
		t.Fatal(err)
	}
	set := &updatingModelSet{ct: map[weekRange]detect.Predictor{}, net: map[weekRange]detect.Predictor{}}
	for _, wr := range ranges[1:] { // every range but the first has models
		set.ct[wr], set.net[wr] = constModel(1), constModel(1)
	}
	e.memo = map[string]any{"updatingModels/W": set}
	_, err = e.runUpdating("W")
	if missing := ranges[0]; err == nil || !strings.Contains(err.Error(),
		fmt.Sprintf("no model for weeks %d-%d", missing.start, missing.end)) {
		t.Errorf("err = %v, want a missing-model error for %+v", err, missing)
	}
}

// constModel scores every sample with the same value.
type constModel float64

func (m constModel) Predict([]float64) float64 { return float64(m) }

func TestSubsetDrivesFraction(t *testing.T) {
	env, err := NewEnv(Config{Seed: 5, GoodScale: 0.05, FailedScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	total := len(env.Fleet().DrivesOf("W"))
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		got := len(env.subsetDrives("W", frac, 1))
		want := int(frac * float64(total))
		if got < want*7/10 || got > want*13/10+2 {
			t.Errorf("frac %v kept %d of %d drives", frac, got, total)
		}
	}
	// Deterministic.
	a := env.subsetDrives("W", 0.3, 2)
	b := env.subsetDrives("W", 0.3, 2)
	if len(a) != len(b) {
		t.Error("subset not deterministic")
	}
}
