package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark has started and not yet waited
// for, so that an error or a signal can stop them all.
type children struct {
	mu   sync.Mutex
	live map[*exec.Cmd]bool
}

func (c *children) add(cmd *exec.Cmd) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == nil {
		c.live = map[*exec.Cmd]bool{}
	}
	c.live[cmd] = true
}

func (c *children) done(cmd *exec.Cmd) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.live, cmd)
}

// killAll kills and waits for whatever is still running.
func (c *children) killAll() {
	c.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(c.live))
	for cmd := range c.live {
		cmds = append(cmds, cmd)
	}
	c.live = nil
	c.mu.Unlock()
	for _, cmd := range cmds {
		_ = cmd.Process.Kill() // already gone is fine
		_ = cmd.Wait()
	}
}

// usage is what the kernel accounted to a child that has exited.
type usage struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
	stdout []byte
}

func usageOf(cmd *exec.Cmd, wall time.Duration) usage {
	u := usage{wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return u
}

// command prepares a child whose stderr is kept in logPath.
func command(logPath, bin string, args ...string) (*exec.Cmd, *os.File, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = log
	return cmd, log, nil
}

// runToExit runs a child from exec to exit and reports what it used.
func (c *children) runToExit(logPath, bin string, args ...string) (usage, error) {
	cmd, log, err := command(logPath, bin, args...)
	if err != nil {
		return usage{}, err
	}
	defer log.Close()
	var out bytes.Buffer
	cmd.Stdout = &out
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return usage{}, err
	}
	c.add(cmd)
	err = cmd.Wait()
	c.done(cmd)
	u := usageOf(cmd, time.Since(start))
	u.stdout = out.Bytes()
	if err != nil {
		return u, fmt.Errorf("%s %s: %w (stderr in %s)", filepath.Base(bin), strings.Join(args, " "), err, logPath)
	}
	return u, nil
}

// daemon is a running tarad and the one client that talks to it.
type daemon struct {
	cmd     *exec.Cmd
	log     *os.File
	cli     *client
	started time.Time
	owner   *children
	// Set once the daemon has answered its first request.
	ready time.Duration // exec to that answer
	first reply
}

// startDaemon execs `tarad -addr <free port> -kb <kb> -mmap`. The port comes
// from binding :0 and closing it again; tarad binds it a moment later.
func (c *children) startDaemon(logPath, bin, kbPath string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	cmd, log, err := command(logPath, bin, "-addr", addr, "-kb", kbPath, "-mmap")
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, log: log, cli: newClient("http://" + addr), started: time.Now(), owner: c}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	c.add(cmd)
	return d, nil
}

// cpu reads the user+system time the running daemon has used so far from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted after
	// its closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// stop sends SIGTERM, waits for the daemon to drain and exit, and reports
// what it used over its whole life.
func (d *daemon) stop() (usage, error) {
	defer d.log.Close()
	d.cli.close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = d.cmd.Process.Kill() // already gone is fine
	}
	err := d.cmd.Wait()
	d.owner.done(d.cmd)
	u := usageOf(d.cmd, time.Since(d.started))
	if err != nil {
		return u, fmt.Errorf("tarad: %w (stderr in %s)", err, d.log.Name())
	}
	return u, nil
}

// compile builds the shipped binaries from the checkout's source into dir and
// reports how long that took.
func compile(repo, dir string) (tara, tarad string, took time.Duration, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/tara", "./cmd/tarad")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", 0, fmt.Errorf("go build ./cmd/tara ./cmd/tarad in %s: %w\n%s", repo, err, out)
	}
	return filepath.Join(dir, "tara"), filepath.Join(dir, "tarad"), time.Since(start), nil
}
