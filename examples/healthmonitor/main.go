// Healthmonitor: stream SMART records through an online Monitor driven by
// the regression-tree health-degree model, and process the resulting
// warnings in order of health degree (worst first) — the deployment story
// of the paper's §III-B: a finite operations team migrates the most
// endangered drives first.
package main

import (
	"fmt"
	"log"
	"sort"

	"hddcart"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("healthmonitor: ")

	fleet, err := hddcart.GenerateFleet(hddcart.FleetConfig{
		Seed: 11, GoodScale: 0.01, FailedScale: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	features := hddcart.CriticalFeatures()

	// Train the RT health-degree model on week 1: good samples target
	// +1; failed samples i hours before failure target −1 + i/w with a
	// global 72 h deterioration window.
	builder, err := hddcart.NewDatasetBuilder(hddcart.DatasetConfig{
		Features:              features,
		PeriodStart:           0,
		PeriodEnd:             168,
		FailedWindowHours:     168,
		FailedSamplesPerDrive: 12,
		FailedShare:           0.2,
		Seed:                  11,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range fleet.Drives() {
		trace := fleet.Trace(d.Index)
		if d.Failed {
			builder.AddFailedDrive(d.Index, d.FailHour, trace)
		} else {
			builder.AddGoodDrive(d.Index, trace)
		}
	}
	ds, err := builder.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.SetHealthTargets(nil, 72); err != nil {
		log.Fatal(err)
	}
	rt, err := hddcart.TrainRegressionTree(ds, hddcart.TreeParams{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("health-degree RT: %d nodes\n", rt.NumNodes())

	// Online monitoring: replay weeks 2-3 hour by hour through the
	// Monitor. Real deployments would call Observe from the SMART
	// collector.
	monitor, err := hddcart.NewMonitor(hddcart.MonitorConfig{
		Features:  features,
		Model:     rt,
		Voters:    11,
		Threshold: -0.2,
		UseMean:   true,
	})
	if err != nil {
		log.Fatal(err)
	}

	type event struct {
		hour  int
		drive hddcart.Drive
		rec   hddcart.Record
	}
	var events []event
	for _, d := range fleet.Drives() {
		for _, rec := range fleet.Trace(d.Index) {
			if rec.Hour >= 168 && rec.Hour < 3*168 {
				events = append(events, event{rec.Hour, d, rec})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].hour < events[j].hour })

	// Observe returns each drive's warning once, when the drive first
	// trips the rule; triage pushes it into a queue keyed by drive index.
	var queue hddcart.WarningQueue
	for _, ev := range events {
		if w, ok := monitor.Observe(ev.drive.Serial, ev.rec); ok {
			queue.Push(hddcart.Warning{Drive: ev.drive.Index, Health: w.Health, Hour: w.Hour})
		}
	}
	fmt.Printf("replayed %d records; %d warnings outstanding\n", len(events), queue.Len())

	// Drain the warning queue: worst health first. With a capacity of a
	// few migrations per day, this ordering is what saves the drives
	// that are actually about to die.
	fmt.Println("\nprocessing order (worst health first):")
	drives := fleet.Drives()
	rank := 0
	for {
		w, ok := queue.Pop()
		if !ok {
			break
		}
		rank++
		d := drives[w.Drive]
		truth := "false alarm"
		if d.Failed {
			truth = fmt.Sprintf("fails at hour %d (%s)", d.FailHour, d.Mode)
		}
		if rank <= 12 {
			fmt.Printf("  %2d. %-10s health %+.3f raised at hour %4d — %s\n",
				rank, d.Serial, w.Health, w.Hour, truth)
		}
	}
	if rank > 12 {
		fmt.Printf("  ... and %d more\n", rank-12)
	}
}
