// Command experiments regenerates every table and figure of the paper's
// evaluation on the synthetic fleet.
//
// Usage:
//
//	experiments [-scale 0.2] [-failed-scale 0.5] [-seed 1] [-ann-epochs 150] [-run table3,figure2]
//
// -run selects a comma-separated subset (default: everything, in paper
// order). -scale scales the good-drive population relative to the paper's
// 25,792-drive dataset; -failed-scale the failed population. The defaults
// run the full suite in about 3.5 minutes on a 2-vCPU host; -scale 1
// reproduces the full population.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hddcart/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.2, "good-drive population scale (1 = paper's dataset)")
	failedScale := fs.Float64("failed-scale", 0.5, "failed-drive population scale")
	seed := fs.Int64("seed", 1, "fleet seed")
	workers := fs.Int("workers", 0, "worker-pool size for training and evaluation (0 = all cores); results are identical for any value")
	annEpochs := fs.Int("ann-epochs", 150, "BP ANN training epoch budget")
	maxBins := fs.Int("max-bins", 0, "histogram-binned tree training with this bin budget (0 = exact split search, max 255); results are bit-identical for any worker count at a fixed value")
	runList := fs.String("run", "", "comma-separated experiment ids (default: all); known: "+
		strings.Join(experiments.IDs(), ","))
	svgDir := fs.String("svg-dir", "", "also render figure charts as SVG files into this directory")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	var ids []string
	if *runList != "" {
		ids = strings.Split(*runList, ",")
	}
	cfg := experiments.Config{
		Seed:        *seed,
		GoodScale:   *scale,
		FailedScale: *failedScale,
		Workers:     *workers,
		ANNEpochs:   *annEpochs,
		MaxBins:     *maxBins,
	}
	fmt.Printf("# hddcart experiment suite: seed %d, good ×%g, failed ×%g\n\n",
		cfg.Seed, cfg.GoodScale, cfg.FailedScale)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	return env.RunWithCharts(ids, os.Stdout, *svgDir)
}
