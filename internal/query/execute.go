package query

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tara/internal/eps"
	"tara/internal/tara"
	"tara/internal/txdb"
)

// Execute runs a parsed query against a framework, writing a human-readable
// answer (with its response time, as an interactive explorer would show).
// The answer is the one AnswerTraced computes for the daemon, rendered as
// text; only export, which writes a local file, has a path of its own.
func Execute(w io.Writer, f *tara.Framework, q Query) error {
	start := time.Now()
	if q.Kind == Export {
		if err := execExport(w, f, q); err != nil {
			return err
		}
	} else {
		res, err := AnswerTraced(f, q, nil)
		if err != nil {
			return err
		}
		if err := render(w, q, res); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "(%v)\n", time.Since(start).Round(time.Microsecond))
	return nil
}

// maxListed caps the rows printed for the rule-list classes.
const maxListed = 25

// pageNote annotates a header line with the served row range. It is empty
// when no pagination was asked for, so default output is unchanged.
func pageNote(q Query, offset, count int) string {
	if q.Limit == 0 && q.Offset == 0 {
		return ""
	}
	return fmt.Sprintf(", showing rows [%d,%d)", offset, offset+count)
}

// ruleText formats a rule from its item names, as rules.Rule.Format does
// from the dictionary.
func ruleText(ant, cons []string) string {
	return "[" + strings.Join(ant, " ") + "] => [" + strings.Join(cons, " ") + "]"
}

// shown cuts a page to the rows the CLI lists; more is the line that stands
// for the rest (empty when nothing was cut).
func shown[T any](rows []T) (head []T, more string) {
	if len(rows) <= maxListed {
		return rows, ""
	}
	return rows[:maxListed], fmt.Sprintf("  ... %d more\n", len(rows)-maxListed)
}

// render writes res, the typed answer of q, as the CLI's text. Numbers come
// from the result; a header that echoes a request parameter the result does
// not carry (thresholds, examined windows, period) takes it from q.
func render(w io.Writer, q Query, res any) error {
	switch res := res.(type) {
	case *MineStream:
		note := pageNote(q, res.Offset, res.Count())
		if q.Kind == About {
			fmt.Fprintf(w, "%d rules about %v in window %d%s\n", res.Total, q.Items, res.Window, note)
		} else {
			extra := ""
			if q.MinLift > 0 {
				extra = fmt.Sprintf(", lift>=%g", q.MinLift)
			}
			fmt.Fprintf(w, "%d rules in window %d at (supp>=%g, conf>=%g%s)%s\n", res.Total, res.Window, q.MinSupp, q.MinConf, extra, note)
		}
		views, more := shown(res.views)
		for _, v := range views {
			fmt.Fprintf(w, "  #%-6d %-50s supp=%.5f conf=%.3f lift=%.2f\n",
				v.ID, v.Rule.Format(res.f.ItemDict()), v.Support(), v.Confidence(), v.Lift())
		}
		io.WriteString(w, more)

	case CountResult:
		fmt.Fprintf(w, "%d rules in window %d at (supp>=%g, conf>=%g)\n", res.Count, res.Window, res.MinSupp, res.MinConf)

	case TrajectoryResult:
		fmt.Fprintf(w, "%d rule trajectories from window %d examined in %v%s\n", res.Total, res.Window, q.Windows, pageNote(q, res.Offset, res.Count))
		rows, more := shown(res.Rules)
		for _, r := range rows {
			fmt.Fprintf(w, "  #%-6d %s\n", r.ID, ruleText(r.Antecedent, r.Consequent))
			for _, p := range r.Points {
				if p.Present {
					fmt.Fprintf(w, "      w%-3d supp=%.5f conf=%.3f\n", p.Window, p.Support, p.Confidence)
				} else {
					fmt.Fprintf(w, "      w%-3d below generation thresholds\n", p.Window)
				}
			}
		}
		io.WriteString(w, more)

	case DiffResult:
		fmt.Fprintf(w, "comparison of A=(%g,%g) vs B=(%g,%g)\n", res.A.MinSupp, res.A.MinConf, res.B.MinSupp, res.B.MinConf)
		for _, d := range res.Windows {
			fmt.Fprintf(w, "  window %d: %d rules only in A, %d only in B\n", d.Window, len(d.OnlyA), len(d.OnlyB))
		}

	case RegionResult:
		fmt.Fprint(w, eps.Region{
			Window:  res.Window,
			LowSupp: res.LowSupp, HighSupp: res.HighSupp,
			LowConf: res.LowConf, HighConf: res.HighConf,
			CutSupp: res.CutSupp, CutConf: res.CutConf,
			Empty: res.Empty, NumRules: res.NumRules,
		})
		if res.Lift != nil {
			high := "+Inf)"
			if res.Lift.High != nil {
				high = fmt.Sprintf("%.6g]", *res.Lift.High)
			}
			fmt.Fprintf(w, " lift(%.6g,%s", res.Lift.Low, high)
		}
		fmt.Fprintln(w)

	case RollUpResult:
		fmt.Fprintf(w, "%d rules over windows [%d,%d] at (supp>=%g, conf>=%g)%s\n", res.Total, res.From, res.To, q.MinSupp, q.MinConf, pageNote(q, res.Offset, res.Count))
		rows, more := shown(res.Rules)
		for _, r := range rows {
			fmt.Fprintf(w, "  #%-6d %-50s supp=%.5f conf=%.3f present=%d/%d errBound=%.5f\n",
				r.ID, ruleText(r.Antecedent, r.Consequent), r.Support, r.Confidence,
				r.Present, res.To-res.From+1, r.MaxSupportError)
		}
		io.WriteString(w, more)

	case DrillResult:
		fmt.Fprintf(w, "rule #%d %s across windows [%d,%d]\n", res.RuleID, ruleText(res.Antecedent, res.Consequent), q.From, q.To)
		for _, row := range res.Windows {
			period := txdb.Period{Start: row.Start, End: row.End}
			if row.Present {
				fmt.Fprintf(w, "  w%-3d %v supp=%.5f conf=%.3f\n", row.Window, period, row.Support, row.Confidence)
			} else {
				fmt.Fprintf(w, "  w%-3d %v below generation thresholds\n", row.Window, period)
			}
		}

	case RankResult:
		fmt.Fprintf(w, "top %d rules over windows [%d,%d] by %s\n", len(res.Rules), res.From, res.To, res.By)
		for _, r := range res.Rules {
			fmt.Fprintf(w, "  #%-6d %-50s coverage=%.2f stability=%.2f stddev=%.5f\n",
				r.ID, ruleText(r.Antecedent, r.Consequent), r.Coverage, r.Stability, r.StdDev)
		}

	case PeriodicResult:
		fmt.Fprintf(w, "top %d rules over windows [%d,%d] by periodicity at period %d\n", len(res.Rules), res.From, res.To, q.Period)
		for _, r := range res.Rules {
			fmt.Fprintf(w, "  #%-6d %-50s score=%.2f phase=%d presence=%v\n",
				r.ID, ruleText(r.Antecedent, r.Consequent), r.Score, r.BestPhase, r.PhasePresence)
		}

	case PlotResult:
		_, err := io.WriteString(w, res.Panorama)
		return err

	case TopKResult:
		fmt.Fprintf(w, "top %d trajectories over windows [%d,%d] by %s%s\n", res.Total, res.From, res.To, res.By, pageNote(q, res.Offset, res.Count))
		for _, r := range res.Rules {
			fmt.Fprintf(w, "  #%-6d %-50s score=%.4f coverage=%.2f stability=%.2f stddev=%.5f drift=%+.5f\n",
				r.ID, ruleText(r.Antecedent, r.Consequent), r.Score, r.Coverage, r.Stability, r.StdDev, r.Drift)
		}

	case SimilarResult:
		fmt.Fprintf(w, "%d nearest trajectories over windows [%d,%d] by %s (%d pruned)%s\n",
			res.Total, res.From, res.To, res.Metric, res.Pruned, pageNote(q, res.Offset, res.Count))
		for _, r := range res.Rules {
			fmt.Fprintf(w, "  #%-6d %-50s distance=%.6f\n", r.ID, ruleText(r.Antecedent, r.Consequent), r.Distance)
		}

	case EmergingResult:
		fmt.Fprintf(w, "%d rules newly qualifying in window %d (none in [%d,%d))%s\n", res.Total, res.To, res.From, res.To, pageNote(q, res.Offset, res.Count))
		for _, r := range res.Rules {
			fmt.Fprintf(w, "  #%-6d %-50s supp=%.4f conf=%.2f\n", r.ID, ruleText(r.Antecedent, r.Consequent), r.Support, r.Confidence)
		}

	default:
		return fmt.Errorf("query: no text rendering for %T", res)
	}
	return nil
}
