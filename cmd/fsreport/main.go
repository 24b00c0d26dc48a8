// Command fsreport runs a study end-to-end (or loads a saved corpus) and
// prints the paper-versus-measured report: with no arguments every
// table, every figure and the section summaries in publication order;
// with section names only those sections, in the order given.
//
// Usage:
//
//	fsreport -machines 20 -hours 12 -seed 1
//	fsreport -in traces/
//	fsreport -in traces/ table2 figure10 section9
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsreport: ")
	var (
		in       = flag.String("in", "", "load a saved corpus (from fsfleet) instead of running a study")
		machines = flag.Int("machines", 15, "fleet size when running a fresh study")
		hours    = flag.Float64("hours", 8, "simulated hours when running a fresh study")
		seed     = flag.Uint64("seed", 1, "study seed")
	)
	flag.Parse()

	names, valid := flag.Args(), report.SectionNames()
	for _, n := range names {
		if !slices.Contains(valid, n) {
			log.Fatalf("unknown section %q (valid: %s)", n, strings.Join(valid, " "))
		}
	}

	var r *report.Results
	var snaps []*snapshot.Snapshot
	if *in != "" {
		c, err := core.LoadCorpusTrace(*in, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		if len(c.DS.Machines) == 0 {
			log.Fatal("no machine traces found in ", *in)
		}
		snaps = c.Snaps
		r = report.ComputeWorkers(c.DS, runtime.GOMAXPROCS(0))
	} else {
		fmt.Fprintf(os.Stderr, "running %d machines for %.1f simulated hours...\n", *machines, *hours)
		study := core.NewStudy(core.Config{
			Seed:            *seed,
			Machines:        *machines,
			Duration:        sim.FromSeconds(*hours * 3600),
			WithNetwork:     true,
			SnapshotAtStart: true,
		})
		if err := study.Run(); err != nil {
			log.Fatal(err)
		}
		snaps = study.Snapshots
		var err error
		r, err = study.Results()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "collected %d records on %d machines\n",
			r.TotalRecords(), len(r.DS.Machines))
	}

	sections := r.Sections(snaps)
	if len(names) == 0 {
		for _, s := range sections {
			fmt.Println(s.Render())
		}
		return
	}
	for _, n := range names {
		i := slices.IndexFunc(sections, func(s report.Section) bool { return s.Name == n })
		fmt.Println(sections[i].Render())
	}
}
