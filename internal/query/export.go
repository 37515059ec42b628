package query

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tara/internal/tara"
)

// RuleJSON is the JSON shape of one rule, shared by file export and the
// query-serving daemon's structured answers.
type RuleJSON struct {
	ID         uint32   `json:"id"`
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Support    float64  `json:"support"`
	Confidence float64  `json:"confidence"`
	Lift       float64  `json:"lift"`
	CountXY    uint32   `json:"countXY"`
	CountX     uint32   `json:"countX"`
	CountY     uint32   `json:"countY"`
	N          uint32   `json:"n"`
}

func toRuleJSON(f *tara.Framework, v tara.RuleView) RuleJSON {
	var r RuleJSON
	r.fill(f, v)
	return r
}

// fill overwrites r in place from v, reusing r's name slices when their
// capacity suffices — the zero-alloc row conversion the streaming encoder
// leans on.
func (r *RuleJSON) fill(f *tara.Framework, v tara.RuleView) {
	names := func(dst []string, items []uint32) []string {
		dst = dst[:0]
		for _, it := range items {
			dst = append(dst, f.ItemDict().Name(it))
		}
		return dst
	}
	r.ID = uint32(v.ID)
	r.Antecedent = names(r.Antecedent, v.Rule.Ant)
	r.Consequent = names(r.Consequent, v.Rule.Cons)
	r.Support = v.Support()
	r.Confidence = v.Confidence()
	r.Lift = v.Lift()
	r.CountXY = v.Stats.CountXY
	r.CountX = v.Stats.CountX
	r.CountY = v.Stats.CountY
	r.N = v.Stats.N
}

// AppendRuleJSON materializes views into dst, growing it as needed, and
// returns the extended slice — the append-style counterpart of the per-rule
// conversion, so callers serving repeated answers can reuse one buffer
// (dst[:0]) instead of allocating a fresh row slice per request.
func AppendRuleJSON(dst []RuleJSON, f *tara.Framework, views []tara.RuleView) []RuleJSON {
	if n := len(dst) + len(views); cap(dst) < n {
		grown := make([]RuleJSON, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	for _, v := range views {
		dst = append(dst, toRuleJSON(f, v))
	}
	return dst
}

// execExport writes the window's qualifying ruleset to q.File as CSV or
// JSON, reporting the row count to the interactive writer.
func execExport(w io.Writer, f *tara.Framework, q Query) error {
	views, err := f.Mine(q.Window, q.MinSupp, q.MinConf)
	if err != nil {
		return err
	}
	total := len(views)
	lo, hi := q.Page(total)
	views = views[lo:hi]
	out, err := os.Create(q.File)
	if err != nil {
		return err
	}
	defer out.Close()
	switch q.Format {
	case "json":
		rows := AppendRuleJSON(make([]RuleJSON, 0, len(views)), f, views)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	default: // csv
		cw := csv.NewWriter(out)
		if err := cw.Write([]string{"id", "antecedent", "consequent", "support", "confidence", "lift", "countXY", "countX", "countY", "n"}); err != nil {
			return err
		}
		for _, v := range views {
			e := toRuleJSON(f, v)
			rec := []string{
				strconv.FormatUint(uint64(e.ID), 10),
				strings.Join(e.Antecedent, " "), strings.Join(e.Consequent, " "),
				strconv.FormatFloat(e.Support, 'g', -1, 64),
				strconv.FormatFloat(e.Confidence, 'g', -1, 64),
				strconv.FormatFloat(e.Lift, 'g', -1, 64),
				strconv.FormatUint(uint64(e.CountXY), 10),
				strconv.FormatUint(uint64(e.CountX), 10),
				strconv.FormatUint(uint64(e.CountY), 10),
				strconv.FormatUint(uint64(e.N), 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
	}
	if err := out.Close(); err != nil {
		return err
	}
	if len(views) != total {
		fmt.Fprintf(w, "exported %d of %d rules from window %d to %s (%s)\n", len(views), total, q.Window, q.File, q.Format)
	} else {
		fmt.Fprintf(w, "exported %d rules from window %d to %s (%s)\n", len(views), q.Window, q.File, q.Format)
	}
	return nil
}
