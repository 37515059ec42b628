// Command tarabench regenerates the paper's experimental tables and figures
// (Figures 6–12, Tables 1–4, and the roll-up bound validation) on synthetic
// analogues of the paper's datasets, and runs the open-loop load experiment
// against the daemon's handler chain.
//
// Usage:
//
//	tarabench -exp fig7             # one experiment
//	tarabench -exp all -scale 0.5   # the paper's whole evaluation, at half scale
//	tarabench -exp load -json out.json
//
// Paper experiments print plain text: one row per (dataset, parameter point)
// with one column per system, directly comparable to the paper's plots.
// Performance of the shipped binaries is measured by benchmark/run.sh, not
// here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"tara/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(harness.ExperimentIDs(), ", ")+", all (every paper experiment), or load")
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = repository default sizes)")
	format := flag.String("format", "text", "output format: text, or csv (fig7/fig8/fig10/fig11 only)")
	jsonPath := flag.String("json", "", "with -exp load: also write the JSON report to this file")
	loadSec := flag.Float64("loadsec", 0, "with -exp load: seconds per phase (0 = default 3s)")
	loadRates := flag.String("loadrates", "", "with -exp load: comma-separated offered QPS rates replacing calibration (e.g. 500,4000)")
	loadAdm := flag.String("loadadmission", "adaptive", "with -exp load: admission modes to measure — adaptive (static phases plus the adaptive-admission section) or static (legacy phases only)")
	flag.Parse()

	start := time.Now()
	var err error
	switch {
	case *exp == "load":
		err = runLoad(*jsonPath, *scale, *loadSec, *loadRates, *loadAdm)
	case *jsonPath != "":
		err = fmt.Errorf("-json is only meaningful with -exp load (got %q)", *exp)
	case *format == "text":
		err = harness.Run(*exp, os.Stdout, *scale)
	case *format == "csv":
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

// runLoad runs the open-loop load experiment, printing its phase tables and
// optionally storing the structured report (the checked-in BENCH_load.json
// is produced this way).
func runLoad(jsonPath string, scale, loadSec float64, ratesCSV string, admission string) error {
	opts := harness.LoadOptions{Admission: admission}
	if loadSec > 0 {
		opts.PhaseDuration = time.Duration(loadSec * float64(time.Second))
	}
	if ratesCSV != "" {
		for _, f := range strings.Split(ratesCSV, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fmt.Errorf("-loadrates: %w", err)
			}
			if !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("-loadrates: %q is not a finite rate > 0", f)
			}
			opts.Rates = append(opts.Rates, v)
		}
	}
	rep, err := harness.LoadBench(scale, opts)
	if err != nil {
		return err
	}
	if err := harness.PrintLoad(os.Stdout, rep); err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}
