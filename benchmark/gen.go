package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"strconv"
	"strings"

	"tara/internal/gen"
)

// writeDataset generates the run's transaction stream from the seed and
// writes it as the TSV `tara -load` reads. It returns the file's size.
func writeDataset(path string, sz sizes, seed int64) (int64, error) {
	db, err := gen.Retail(gen.RetailParams{
		Transactions: sz.tx, NumItems: sz.items, AvgLen: sz.avgLen, Drift: sz.drift, Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n, err := db.WriteTo(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// request is one generated HTTP request. target is the path and query string;
// cond and gzip select the explore-revisit header variants.
type request struct {
	class  string
	target string
	// pool is the request's index in the explore-revisit URL pool, -1 elsewhere.
	pool int
	// cond sends If-None-Match with the ETag the warm-up pass collected (the
	// expected answer is then 304); gzip sends Accept-Encoding: gzip.
	cond, gzip bool
}

// values returns the decoded query string of the request.
func (r request) values() url.Values {
	_, qs, _ := strings.Cut(r.target, "?")
	v, _ := url.ParseQuery(qs)
	return v
}

// generator produces a workload's request stream. Its only inputs are the
// seed, the sizes and the number of rules in the knowledge base (which the
// seed determines through the dataset): the same seed gives the same stream.
type generator struct {
	rng      *rand.Rand
	sz       sizes
	numRules int
	mix      []share
	// explore-revisit: the URL pool and the zipf law over it.
	pool []request
	zipf *rand.Zipf
}

func newGenerator(workload string, sz sizes, seed int64, numRules int) *generator {
	g := &generator{sz: sz, numRules: numRules}
	switch workload {
	case wEvolve:
		g.rng = rand.New(rand.NewSource(seed*7919 + 3))
		g.mix = evolveMix
	case wRevisit:
		// The pool holds the explore-firsttouch kinds of URL — the two
		// workloads differ only in whether the daemon has seen a URL before —
		// but not in the order chance would put them. Rank decides how hot a
		// URL is, and an answer is anything from 60 bytes to 300 KB, so the
		// classes take the ranks in a fixed rotation (a smooth weighted
		// round-robin over the mix): every seed's hot set has the same make-up,
		// and only the thresholds are drawn.
		first := newGenerator(wFirstTouch, sz, seed, numRules)
		credit := make([]float64, len(first.mix))
		for i := 0; i < sz.pool; i++ {
			best := 0
			for j, m := range first.mix {
				if credit[j] += m.share; credit[j] > credit[best] {
					best = j
				}
			}
			credit[best]--
			rq := first.request(first.mix[best])
			rq.pool = i
			g.pool = append(g.pool, rq)
		}
		g.rng = rand.New(rand.NewSource(seed*7919 + 2))
		// P(k) ∝ (30+k)^-1.2: the exponent of issue 13 with the head spread
		// out. With the usual offset of 1 a single URL draws a third of the
		// requests and its size decides the run.
		g.zipf = rand.NewZipf(g.rng, 1.2, 30, uint64(sz.pool-1))
	default:
		g.rng = rand.New(rand.NewSource(seed*7919 + 1))
		g.mix = exploreMix
	}
	return g
}

// next returns the next request of the stream.
func (g *generator) next() request {
	if g.zipf != nil {
		rq := g.pool[g.zipf.Uint64()]
		switch u := g.rng.Float64(); {
		case u < 0.2:
			rq.cond = true
		case u < 0.5:
			rq.gzip = true
		}
		return rq
	}
	u, acc := g.rng.Float64(), 0.0
	pick := g.mix[len(g.mix)-1]
	for _, s := range g.mix {
		if acc += s.share; u < acc {
			pick = s
			break
		}
	}
	return g.request(pick)
}

// request draws the parameters of one request of the given kind.
func (g *generator) request(s share) request {
	return request{class: s.class, target: endpoint[s.class].path + "?" + g.params(s), pool: -1}
}

func (g *generator) supp() string {
	return strconv.FormatFloat(g.sz.genSupp+g.rng.Float64()*(g.sz.suppHi-g.sz.genSupp), 'f', 5, 64)
}

func (g *generator) conf() string {
	return strconv.FormatFloat(g.sz.genConf+g.rng.Float64()*(g.sz.confHi-g.sz.genConf), 'f', 4, 64)
}

// span draws a window range of 4 to 24 windows (fewer when the knowledge base
// is shorter).
func (g *generator) span() (from, to int) {
	lo, hi := 4, 24
	if hi > g.sz.windows {
		hi = g.sz.windows
	}
	if lo > hi {
		lo = hi
	}
	n := lo + g.rng.Intn(hi-lo+1)
	from = g.rng.Intn(g.sz.windows - n + 1)
	return from, from + n - 1
}

func oneOf(rng *rand.Rand, names ...string) string { return names[rng.Intn(len(names))] }

// params renders the query string of one request of the given class.
func (g *generator) params(s share) string {
	var b strings.Builder
	page := func() {
		if s.variant == "page" {
			b.WriteString("&limit=50")
		}
	}
	switch s.class {
	case "mine", "count", "recommend":
		fmt.Fprintf(&b, "w=%d&supp=%s&conf=%s", g.rng.Intn(g.sz.windows), g.supp(), g.conf())
		page()
	case "diff":
		w := g.rng.Intn(g.sz.windows - 1)
		fmt.Fprintf(&b, "w=%d,%d&a=%s,%s&b=%s,%s", w, w+1, g.supp(), g.conf(), g.supp(), g.conf())
	case "content":
		// Item popularity rotates with time (gen.Retail's drift), so the
		// items asked about are among the twenty most popular of the window.
		w := g.rng.Intn(g.sz.windows)
		shift := int(g.sz.drift * float64(g.sz.items) * (float64(w) + 0.5) / float64(g.sz.windows))
		fmt.Fprintf(&b, "w=%d&supp=%s&conf=%s&items=sku%d", w, g.supp(), g.conf(), (g.rng.Intn(20)+shift)%g.sz.items)
		page()
	case "trajectory":
		from, to := g.span()
		in := make([]string, 0, to-from+1)
		for w := from; w <= to; w++ {
			in = append(in, strconv.Itoa(w))
		}
		fmt.Fprintf(&b, "w=%d&supp=%s&conf=%s&in=%s", from+g.rng.Intn(to-from+1), g.supp(), g.conf(), strings.Join(in, ","))
		page()
	case "drill":
		from, to := g.span()
		fmt.Fprintf(&b, "rule=%d&from=%d&to=%d", g.rng.Intn(g.numRules), from, to)
	case "similar":
		from, to := g.span()
		base := 0.005 + 0.025*g.rng.Float64()
		ref := make([]string, 0, to-from+1)
		for w := from; w <= to; w++ {
			ref = append(ref, strconv.FormatFloat(base*(0.5+g.rng.Float64()), 'f', 4, 64))
		}
		fmt.Fprintf(&b, "from=%d&to=%d&ref=%s&metric=%s&k=10", from, to, strings.Join(ref, ","), oneOf(g.rng, "euclid", "max"))
	default: // rollup, rank, periodic, topk, emerging
		from, to := g.span()
		fmt.Fprintf(&b, "from=%d&to=%d&supp=%s&conf=%s", from, to, g.supp(), g.conf())
		switch s.class {
		case "rank":
			fmt.Fprintf(&b, "&by=%s&k=10", oneOf(g.rng, "stability", "coverage", "volatility"))
		case "topk":
			fmt.Fprintf(&b, "&by=%s&k=10", oneOf(g.rng, "stability", "drift", "volatility", "coverage"))
		case "periodic":
			fmt.Fprintf(&b, "&period=%d&k=10", 2+g.rng.Intn(3))
		}
		page()
	}
	return b.String()
}

// take returns the first n requests of a fresh stream.
func take(workload string, sz sizes, seed int64, numRules, n int) []request {
	g := newGenerator(workload, sz, seed, numRules)
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// digest identifies a request list; the tests use it to show that a seed
// fixes the stream.
func digest(rs []request) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%s %v %v\n", r.target, r.cond, r.gzip)
	}
	return hex.EncodeToString(h.Sum(nil))
}
