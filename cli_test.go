package tara_bench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tara/internal/query"
)

// Integration tests that build and exercise the three executables end to
// end. They invoke the Go toolchain, so they are skipped in -short mode.

func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("binary integration test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCLITaraOneShot(t *testing.T) {
	bin := buildTool(t, "./cmd/tara")
	out := run(t, bin, "-tx", "2000", "-batches", "4", "-q", "mine w=0 supp=0.02 conf=0.4")
	if !strings.Contains(out, "rules in window 0") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestCLITaraSaveLoad: -save with no -saveformat writes a knowledge base that
// -kb reopens with the same answers.
func TestCLITaraSaveLoad(t *testing.T) {
	bin := buildTool(t, "./cmd/tara")
	kb := filepath.Join(t.TempDir(), "kb.tara")
	first := run(t, bin, "-tx", "2000", "-batches", "4",
		"-save", kb, "-q", "recommend w=1 supp=0.02 conf=0.4")
	if _, err := os.Stat(kb); err != nil {
		t.Fatalf("knowledge base not written: %v", err)
	}
	second := run(t, bin, "-kb", kb, "-q", "recommend w=1 supp=0.02 conf=0.4")
	// Both runs must report the same stable region (the line starting with
	// "window 1:").
	extract := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "window 1:") {
				return line
			}
		}
		return ""
	}
	a, b := extract(first), extract(second)
	if a == "" || a != b {
		t.Errorf("regions differ after reload:\n%q\nvs\n%q", a, b)
	}
}

// TestCLITaraSaveMappedMmap: -saveformat mapped writes a file that reopens
// with the same answers read into the heap and memory-mapped, and
// -saveformat accepts nothing else.
func TestCLITaraSaveMappedMmap(t *testing.T) {
	bin := buildTool(t, "./cmd/tara")
	dir := t.TempDir()
	kb := filepath.Join(dir, "kb.mapped")
	const q = "mine w=0 supp=0.02 conf=0.4"
	first := run(t, bin, "-tx", "2000", "-batches", "4",
		"-save", kb, "-saveformat", "mapped", "-q", q)
	if _, err := os.Stat(kb); err != nil {
		t.Fatalf("mapped knowledge base not written: %v", err)
	}
	mapped := run(t, bin, "-kb", kb, "-mmap", "-q", q)
	if !strings.Contains(mapped, "(mmap)") && !strings.Contains(mapped, "(readerat)") {
		t.Errorf("-mmap did not report a mapped load mode:\n%s", mapped)
	}
	loaded := run(t, bin, "-kb", kb, "-q", q)
	extract := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "rules in window 0") {
				return line
			}
		}
		return ""
	}
	a, m, l := extract(first), extract(mapped), extract(loaded)
	if a == "" || a != m || a != l {
		t.Errorf("answers diverge across load modes:\n%q\n%q\n%q", a, m, l)
	}

	out, err := exec.Command(bin, "-tx", "600", "-batches", "2",
		"-save", filepath.Join(dir, "legacy.tara"), "-saveformat", "legacy", "-q", q).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-saveformat") {
		t.Errorf("-saveformat legacy: err=%v, want an unknown -saveformat failure:\n%s", err, out)
	}
}

func TestCLITaraREPL(t *testing.T) {
	bin := buildTool(t, "./cmd/tara")
	cmd := exec.Command(bin, "-tx", "1500", "-batches", "3")
	cmd.Stdin = strings.NewReader("stats\nmine w=0 supp=0.02 conf=0.4\nbogus query\nquit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("REPL run: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "knowledge base:") {
		t.Errorf("stats output missing:\n%s", text)
	}
	if !strings.Contains(text, "rules in window 0") {
		t.Errorf("mine output missing:\n%s", text)
	}
	if !strings.Contains(text, "error:") {
		t.Errorf("bad query not reported:\n%s", text)
	}
}

// TestCLITaraHelpListsEveryClass: `tara> help` is printed from the query
// package's class table, one line per class.
func TestCLITaraHelpListsEveryClass(t *testing.T) {
	bin := buildTool(t, "./cmd/tara")
	cmd := exec.Command(bin, "-tx", "600", "-items", "40", "-batches", "2")
	cmd.Stdin = strings.NewReader("help\nquit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("REPL run: %v\n%s", err, out)
	}
	for _, c := range query.Classes {
		if line := fmt.Sprintf("  %-9s %s\n", c.Name, c.Usage); !strings.Contains(string(out), line) {
			t.Errorf("help lacks %q:\n%s", line, out)
		}
	}
}

// TestCLITaraServeUsage checks that `tara serve` exposes the daemon's flag
// set (internal/server.Run is the single flag source shared with cmd/tarad),
// including the admission flags, via -h. There is one admission policy, so
// the old -admission selector is an undefined flag.
func TestCLITaraServeUsage(t *testing.T) {
	bin := buildTool(t, "./cmd/tara")
	cmd := exec.Command(bin, "serve", "-h")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Errorf("serve -h exited 0; want the help-requested error path:\n%s", out)
	}
	text := string(out)
	for _, flagName := range []string{"-addr", "-minlimit", "-maxinflight", "-queuewait", "-kb", "-mmap"} {
		if !strings.Contains(text, "\n  "+flagName+" ") && !strings.Contains(text, "\n  "+flagName+"\n") {
			t.Errorf("serve -h output missing %s:\n%s", flagName, text)
		}
	}
	tarad := buildTool(t, "./cmd/tarad")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-admission", "static"}, "flag provided but not defined: -admission"},
		// Below one slot per QoS class the analytic class could never be
		// admitted; the daemon refuses to start rather than shed it forever.
		{[]string{"-tx", "300", "-items", "30", "-batches", "2", "-maxinflight", "1"}, "MaxInFlight 1"},
	} {
		out, err := exec.Command(tarad, c.args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), c.want) {
			t.Errorf("tarad %v: err=%v, want a failure naming %q:\n%s", c.args, err, c.want, out)
		}
	}
}

func TestCLIMaras(t *testing.T) {
	bin := buildTool(t, "./cmd/maras")
	out := run(t, bin, "-reports", "2500", "-topk", "10")
	if !strings.Contains(out, "precision@10") {
		t.Errorf("unexpected output:\n%s", out)
	}
	if !strings.Contains(out, "TRUE DDI") {
		t.Errorf("no planted interaction surfaced:\n%s", out)
	}
}

func TestCLITarabench(t *testing.T) {
	bin := buildTool(t, "./cmd/tarabench")
	out := run(t, bin, "-exp", "tab4")
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "0.0002") {
		t.Errorf("unexpected output:\n%s", out)
	}
	// An unknown experiment — made up, or one of the performance experiments
	// benchmark/ replaced — must fail with a clear message.
	for _, id := range []string{"fig99", "online", "load"} {
		combined, err := exec.Command(bin, "-exp", id).CombinedOutput()
		if err == nil || !strings.Contains(string(combined), "unknown experiment") {
			t.Errorf("-exp %s: err=%v, want the unknown-experiment failure:\n%s", id, err, combined)
		}
	}
}
