// Command tarabench regenerates the paper's experimental tables and figures
// (Figures 6–12, Tables 1–4, and the roll-up bound validation) on synthetic
// analogues of the paper's datasets.
//
// Usage:
//
//	tarabench -exp fig7             # one experiment
//	tarabench -exp all -scale 0.5   # the paper's whole evaluation, at half scale
//	tarabench -exp fig8 -format csv # one figure's series as CSV
//
// Paper experiments print plain text: one row per (dataset, parameter point)
// with one column per system, directly comparable to the paper's plots.
// Performance of the shipped binaries is measured by benchmark/run.sh, not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tara/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(harness.ExperimentIDs(), ", ")+", or all (every paper experiment)")
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = repository default sizes)")
	format := flag.String("format", "text", "output format: text, or csv (fig7/fig8/fig10/fig11 only)")
	flag.Parse()

	start := time.Now()
	var err error
	switch *format {
	case "text":
		err = harness.Run(*exp, os.Stdout, *scale)
	case "csv":
		err = harness.RunCSV(*exp, os.Stdout, *scale)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarabench:", err)
		os.Exit(1)
	}
	fmt.Printf("\ncompleted %s at scale %g in %v\n", *exp, *scale, time.Since(start).Round(time.Millisecond))
}
