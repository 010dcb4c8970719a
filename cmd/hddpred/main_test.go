package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hddcart/internal/cart"
	"hddcart/internal/simulate"
	"hddcart/internal/smart"
	"hddcart/internal/trace"
)

// The tests share one fixture per test process: the writeFixture CSV
// and a ct model trained on it with the default flags, built on first
// use in a temporary directory that TestMain removes. Tests read them
// and never write them. The serve child processes never ask for it, so
// they build nothing.
var (
	fixtureOnce               sync.Once
	fixtureDir                string
	fixtureData, fixtureModel string
	fixtureErr                error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if fixtureDir != "" {
		os.RemoveAll(fixtureDir)
	}
	os.Exit(code)
}

// sharedFixture returns the shared CSV and default ct model paths.
func sharedFixture(t *testing.T) (data, ctModel string) {
	t.Helper()
	fixtureOnce.Do(func() {
		if fixtureDir, fixtureErr = os.MkdirTemp("", "hddpred-test"); fixtureErr != nil {
			return
		}
		fixtureData = filepath.Join(fixtureDir, "traces.csv")
		if fixtureErr = writeFixture(fixtureData); fixtureErr != nil {
			return
		}
		fixtureModel = filepath.Join(fixtureDir, "ct.json")
		fixtureErr = run([]string{"train", "-data", fixtureData, "-model", "ct", "-o", fixtureModel})
	})
	if fixtureErr != nil {
		t.Fatalf("shared fixture: %v", fixtureErr)
	}
	return fixtureData, fixtureModel
}

// writeFixture generates a small CSV dataset for the CLI tests at path.
func writeFixture(path string) error {
	fleet, err := simulate.New(simulate.Config{Seed: 9, GoodScale: 0.003, FailedScale: 0.12})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	tw := trace.NewWriter(bw)
	for _, d := range fleet.Drives() {
		meta := trace.DriveMeta{Serial: d.Serial, Family: d.Family, Failed: d.Failed, FailHour: d.FailHour}
		if err := tw.WriteDrive(meta, fleet.Trace(d.Index)); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// TestCLIGolden pins what hddpred prints and writes for the writeFixture
// file: the evaluate result line (float and -sweep, ct and rt), the
// predict output and the trained model bytes (both by SHA-256). Each must
// come out the same under GOMAXPROCS 1, 2 and 4, so that neither the
// parallel trace decoder nor a worker pool can move a result.
func TestCLIGolden(t *testing.T) {
	data, _ := sharedFixture(t)
	want := map[string]string{
		"train ct":           "dc45df6b672cc36a1e4201b9561d1c62222fbc5829d9346e7578141a1361a552",
		"train rt":           "789098934516df1bea51bd5cfceab4a16939e1b398f302c996c4cd5612f164d3",
		"evaluate ct":        "FAR 12.00%  FDR 100.00%  TIA 383.9 h (good 9/75, failed 20/20)\n",
		"evaluate ct -sweep": "FAR 12.00%  FDR 100.00%  TIA 382.9 h (good 9/75, failed 20/20)\n",
		"evaluate rt":        "FAR 0.00%  FDR 20.00%  TIA 126.8 h (good 0/75, failed 4/20)\n",
		"evaluate rt -sweep": "FAR 0.00%  FDR 20.00%  TIA 128.0 h (good 0/75, failed 4/20)\n",
		"predict ct":         "1d4237ed738e0f4605cdefd9e21e61c2d6f913002b1752e17bf1c950788df047",
		"predict rt":         "72cb6b056c99f9fc42098ecd95a8d2d0f879b9a1293ec2f7a5eb18a11fb84693",
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		got := map[string]string{}
		for _, kind := range []string{"ct", "rt"} {
			model := filepath.Join(dir, kind+".json")
			stdout(t, "train", "-data", data, "-model", kind, "-o", model)
			b, err := os.ReadFile(model)
			if err != nil {
				t.Fatal(err)
			}
			got["train "+kind] = sha256Hex(b)
			got["evaluate "+kind] = stdout(t, "evaluate", "-data", data, "-m", model)
			got["evaluate "+kind+" -sweep"] = stdout(t, "evaluate", "-data", data, "-m", model, "-sweep")
			got["predict "+kind] = sha256Hex([]byte(stdout(t, "predict", "-data", data, "-m", model)))
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("GOMAXPROCS=%d: %s gives %q, want %q", procs, k, got[k], w)
			}
		}
	}
}

// stdout runs hddpred with args and returns what it printed to stdout.
func stdout(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("hddpred %s: %v", strings.Join(args, " "), err)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestTrainEvaluatePredictInspectCT(t *testing.T) {
	data, _ := sharedFixture(t)
	model := filepath.Join(t.TempDir(), "ct.json")
	if err := run([]string{"train", "-data", data, "-model", "ct", "-o", model}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"evaluate", "-data", data, "-m", model, "-voters", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"predict", "-data", data, "-m", model}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"inspect", "-m", model}); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateProfileFlags pins the -cpuprofile/-memprofile plumbing:
// both files must exist and be non-empty after an evaluate run, and a
// bad profile path must fail before any scanning starts.
func TestEvaluateProfileFlags(t *testing.T) {
	data, model := sharedFixture(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"evaluate", "-data", data, "-m", model, "-sweep",
		"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s: empty profile", p)
		}
	}
	if err := run([]string{"evaluate", "-data", data, "-m", model,
		"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "cpu.prof")}); err == nil {
		t.Fatal("unwritable -cpuprofile path did not fail")
	}
}

func TestTrainRT(t *testing.T) {
	data, _ := sharedFixture(t)
	model := filepath.Join(t.TempDir(), "rt.json")
	if err := run([]string{"train", "-data", data, "-model", "rt", "-o", model}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"evaluate", "-data", data, "-m", model, "-threshold", "-0.3"}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainANN(t *testing.T) {
	data, _ := sharedFixture(t)
	model := filepath.Join(t.TempDir(), "ann.json")
	if err := run([]string{"train", "-data", data, "-model", "ann", "-o", model, "-ann-epochs", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"evaluate", "-data", data, "-m", model}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"inspect", "-m", model}); err != nil {
		t.Fatal(err)
	}
}

// TestScanWorkersFlag covers the -workers flag on the scan paths: negative
// values are rejected with the training-side message, and positive worker
// counts run cleanly (per-drive outcomes are index-addressed, so any count
// yields identical results — the detect package's batch tests enforce it).
func TestScanWorkersFlag(t *testing.T) {
	data, model := sharedFixture(t)
	for _, sub := range []string{"evaluate", "predict"} {
		err := run([]string{sub, "-data", data, "-m", model, "-workers", "-1"})
		if err == nil || !strings.Contains(err.Error(), "negative Workers") {
			t.Errorf("%s -workers -1: got %v, want negative Workers error", sub, err)
		}
		if err := run([]string{sub, "-data", data, "-m", model, "-workers", "3"}); err != nil {
			t.Errorf("%s -workers 3: %v", sub, err)
		}
	}
}

// TestTrainMaxBinsFlag covers the -max-bins flag on the train path: a
// valid bin budget trains a usable model through the histogram grower,
// and out-of-range budgets surface cart's validation error.
func TestTrainMaxBinsFlag(t *testing.T) {
	data, _ := sharedFixture(t)
	model := filepath.Join(t.TempDir(), "ct.json")
	if err := run([]string{"train", "-data", data, "-model", "ct", "-o", model, "-max-bins", "64"}); err != nil {
		t.Fatalf("-max-bins 64: %v", err)
	}
	if err := run([]string{"evaluate", "-data", data, "-m", model, "-voters", "5"}); err != nil {
		t.Fatalf("evaluate binned model: %v", err)
	}
	for _, kind := range []string{"ct", "rt"} {
		err := run([]string{"train", "-data", data, "-model", kind, "-o", model, "-max-bins", "256"})
		if err == nil || !strings.Contains(err.Error(), "MaxBins") {
			t.Errorf("%s -max-bins 256: got %v, want MaxBins range error", kind, err)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		nil,                        // no subcommand
		{"frobnicate"},             // unknown subcommand
		{"train"},                  // missing -data
		{"train", "-data", "nope"}, // unreadable data
		{"evaluate"},               // missing -data
		{"predict"},                // missing -data
		{"inspect", "-m", "missing.json"},
		{"train", "-data", "x", "-model", "svm"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"type":"ct"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadModel(bad); err == nil {
		t.Error("model without tree accepted")
	}
	if err := os.WriteFile(bad, []byte(`{"type":"alien"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadModel(bad); err == nil {
		t.Error("unknown model type accepted")
	}
	if err := os.WriteFile(bad, []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadModel(bad); err == nil {
		t.Error("non-JSON model accepted")
	}
}

func TestFeatselSubcommand(t *testing.T) {
	data, _ := sharedFixture(t)
	if err := run([]string{"featsel", "-data", data, "-top", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestBackblazeFormat(t *testing.T) {
	// A minimal Backblaze-format file flows through train (it will fail
	// for lack of failed samples, which is the expected, explicit error).
	path := filepath.Join(t.TempDir(), "bb.csv")
	raw := "date,serial_number,model,failure,smart_1_normalized,smart_1_raw\n" +
		"2024-01-01,X,M,0,100,1\n2024-01-02,X,M,0,99,2\n"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"train", "-data", path, "-format", "backblaze", "-period-end", "96",
		"-o", filepath.Join(t.TempDir(), "m.json")})
	if err == nil || !strings.Contains(err.Error(), "need both good and failed") {
		t.Errorf("err = %v, want missing-failed-samples error", err)
	}
	if err := run([]string{"train", "-data", path, "-format", "alien"}); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestEvaluateSweepFlag covers the -sweep path on both tree model kinds:
// the sharded fleet-sweep engine must evaluate cleanly, and non-tree
// models are rejected up front.
func TestEvaluateSweepFlag(t *testing.T) {
	data, ct := sharedFixture(t)
	rt := filepath.Join(t.TempDir(), "rt.json")
	if err := run([]string{"train", "-data", data, "-model", "rt", "-o", rt}); err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{ct, rt} {
		if err := run([]string{"evaluate", "-data", data, "-m", model, "-sweep", "-workers", "2"}); err != nil {
			t.Errorf("%s -sweep: %v", filepath.Base(model), err)
		}
	}
	ann := filepath.Join(t.TempDir(), "ann.json")
	if err := run([]string{"train", "-data", data, "-model", "ann", "-o", ann, "-ann-epochs", "5"}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"evaluate", "-data", data, "-m", ann, "-sweep"})
	if err == nil || !strings.Contains(err.Error(), "tree model") {
		t.Errorf("ann -sweep: got %v, want tree-model error", err)
	}
}

// TestDetectorFlagValidation pins that evaluate (float and -sweep) and
// predict reject a window below 1 and an rt threshold outside [-1, 1]
// before reading any data, with the error serve gives for the same
// values. The ct vote cut is fixed at 0, so -threshold is ignored there.
func TestDetectorFlagValidation(t *testing.T) {
	dir := t.TempDir()
	models := map[string]string{}
	for kind, k := range map[string]cart.Kind{"ct": cart.Classification, "rt": cart.Regression} {
		tree := &cart.Tree{Root: &cart.Node{Value: 1, N: 1, W: 1}, Kind: k, NumFeatures: len(smart.CriticalFeatures())}
		b, err := json.Marshal(modelFile{Type: kind, Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		models[kind] = filepath.Join(dir, kind+".json")
		if err := os.WriteFile(models[kind], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The data file does not exist: a flag that passed validation would
	// fail on opening it instead, with a different message.
	data := filepath.Join(dir, "absent.csv")
	cases := []struct {
		kind  string
		flags []string
		want  string // error substring; "" means the flags are valid
	}{
		{"ct", []string{"-voters", "0"}, "window N must be positive"},
		{"ct", []string{"-voters", "-3"}, "window N must be positive"},
		{"rt", []string{"-voters", "0"}, "window N must be positive"},
		{"rt", []string{"-threshold", "5"}, "outside [-1, 1]"},
		{"rt", []string{"-threshold", "-5"}, "outside [-1, 1]"},
		{"rt", []string{"-threshold", "NaN"}, "outside [-1, 1]"},
		{"ct", []string{"-threshold", "5"}, ""},
		{"rt", []string{"-voters", "1", "-threshold", "-1"}, ""},
	}
	for _, c := range cases {
		for _, cmd := range [][]string{{"evaluate"}, {"evaluate", "-sweep"}, {"predict"}} {
			args := append(append(append([]string(nil), cmd...), "-data", data, "-m", models[c.kind]), c.flags...)
			err := run(args)
			if c.want == "" {
				if !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s %v: got %v, want only the missing-data error", c.kind, args, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), cmd[0]+": ") {
				t.Errorf("%s %v: got %v, want %q from %s", c.kind, args, err, c.want, cmd[0])
			}
		}
	}
}
