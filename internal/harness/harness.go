package harness

import (
	"fmt"
	"io"
	"sort"
)

// RunTab3 regenerates Table 3: the statistics of the four benchmark
// datasets at the chosen scale.
func RunTab3(w io.Writer, scale float64) error {
	return runTab3(w, scale, Datasets())
}

func runTab3(w io.Writer, scale float64, specs []DatasetSpec) error {
	fmt.Fprintln(w, "Table 3 — datasets (scaled; see DESIGN.md for the paper's originals)")
	fmt.Fprintf(w, "%-10s %14s %14s %10s %10s\n", "dataset", "transactions", "unique-items", "avg-len", "batches")
	for _, spec := range specs {
		db, err := spec.Build(scale)
		if err != nil {
			return err
		}
		s := db.Stats()
		fmt.Fprintf(w, "%-10s %14d %14d %10.1f %10d\n",
			spec.Name, s.Transactions, s.UniqueItems, s.AvgLen, spec.Batches)
	}
	return nil
}

// RunTab4 regenerates Table 4: the index-construction thresholds per
// dataset, alongside the paper's originals.
func RunTab4(w io.Writer, _ float64) error {
	fmt.Fprintln(w, "Table 4 — thresholds for index construction")
	fmt.Fprintf(w, "%-10s %12s %12s %24s\n", "dataset", "gen-supp", "gen-conf", "paper (supp, conf)")
	paper := map[string]string{
		"retail":  "(0.0002, 0.1)",
		"t5k":     "(0.0012, 0.2)",
		"t2k":     "(0.001, 0.2)",
		"webdocs": "(0.1123, 0.2)",
	}
	for _, spec := range Datasets() {
		fmt.Fprintf(w, "%-10s %12g %12g %24s\n", spec.Name, spec.GenSupp, spec.GenConf, paper[spec.Name])
	}
	return nil
}

// Experiments maps the ids of the paper's evaluation (Figures 6–12, Tables
// 1–4, the roll-up bound) to their runners; "all" runs exactly these.
// Performance of the shipped binaries is benchmark/'s job, not this table's.
var Experiments = map[string]func(io.Writer, float64) error{
	"tab1":   RunTab1,
	"fig6":   RunFig6,
	"fig7":   RunFig7,
	"fig8":   RunFig8,
	"fig9":   RunFig9,
	"fig10":  RunFig10,
	"fig11":  RunFig11,
	"fig12":  RunFig12,
	"tab2":   RunTab2,
	"tab3":   RunTab3,
	"tab4":   RunTab4,
	"rollup": RunRollUp,
}

// ExperimentIDs lists the experiment ids in run order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Experiments))
	for id := range Experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run dispatches one experiment (or "all") at the given scale.
func Run(exp string, w io.Writer, scale float64) error {
	if scale <= 0 {
		scale = 1
	}
	if exp == "all" {
		for _, id := range ExperimentIDs() {
			if err := Run(id, w, scale); err != nil {
				return fmt.Errorf("harness: %s: %w", id, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	fn, ok := Experiments[exp]
	if !ok {
		return fmt.Errorf("harness: unknown experiment %q (have %v, all)", exp, ExperimentIDs())
	}
	return fn(w, scale)
}
