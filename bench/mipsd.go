package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"time"
)

// The mipsd workload runs the real cmd/mipsd binary, built before any
// timing, on 127.0.0.1 with its default flags, and drives it with the
// job mix over HTTP. mipsd keeps every finished job, and its resident
// memory grows by ~3.3 MB with each one on this mix; so that a run stays
// far from exhausting a small host, the run is cut into segments of
// segmentJobs jobs and each segment gets a fresh process.

// segmentJobs is the number of jobs one mipsd process serves: two
// seconds of the schedule.
const segmentJobs = 2 * mixRate

// repoRoot finds the root of the repository (the directory whose go.mod
// declares module mips) from the working directory upwards.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		f, err := os.Open(filepath.Join(dir, "go.mod"))
		if err == nil {
			sc := bufio.NewScanner(f)
			isRoot := sc.Scan() && sc.Text() == "module mips"
			f.Close()
			if isRoot {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (go.mod of module mips) above the working directory")
		}
		dir = parent
	}
}

// buildMipsd builds cmd/mipsd into dir and returns the binary's path.
func buildMipsd(dir string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "mipsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mipsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mipsd: %v\n%s", err, out)
	}
	return bin, nil
}

// listenRe matches the line mipsd prints once it is listening.
var listenRe = regexp.MustCompile(`serving simulation jobs at (http://\S+)`)

// stderrWatch collects a child's standard error and reports the
// address mipsd announces.
type stderrWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if m := listenRe.FindSubmatch(w.buf.Bytes()); m != nil {
			w.found = true
			w.addr <- string(m[1]) // buffered for this one send
		}
	}
	return len(p), nil
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// server is a running mipsd.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// startMipsd starts mipsd, waits until it listens, creates the mix's
// template, and returns the server and the time all that took.
func startMipsd(bin string) (*server, time.Duration, error) {
	start := time.Now()
	watch := &stderrWatch{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = watch
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case s.base = <-watch.addr:
	case err := <-s.exited:
		return nil, 0, fmt.Errorf("mipsd exited before listening: %v\n%s", err, watch)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("mipsd did not listen within 60s\n%s", watch)
	}
	c := newClient()
	defer c.CloseIdleConnections()
	if err := call(c, "PUT", s.base+"/v1/templates/"+mixTemplate, templateBody, nil); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // fails only if it has exited already
	<-s.exited
}

// mipsdSetups is how many times the workload starts and stops mipsd
// before it measures, besides the start of each segment. One start
// takes ~20 ms.
const mipsdSetups = 21

// runMipsd is the job-service workload. Each start of mipsd, from exec
// to the template being created, is one set-up.
func runMipsd(cfg runConfig) (result, error) {
	dir, err := os.MkdirTemp("", "bench-mipsd-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	bin, err := buildMipsd(dir)
	if err != nil {
		return result{}, err
	}
	var setup, rss []float64
	for i := 0; i < mipsdSetups; i++ {
		srv, d, err := startMipsd(bin)
		if err != nil {
			return result{}, err
		}
		srv.stop()
		setup = append(setup, d.Seconds())
	}
	n := int(cfg.seconds.Seconds() * mixRate)
	if n < 1 {
		n = 1
	}
	sched := schedule(cfg.seed, n)
	total := &mixStats{lat: samples{}, tracedLat: samples{}}
	for len(sched) > 0 {
		k := min(segmentJobs, len(sched))
		seg, err := runSegment(bin, sched[:k], cfg.rec)
		if err != nil {
			return result{}, err
		}
		sched = sched[k:]
		total.merge(seg.mix)
		setup = append(setup, seg.setup.Seconds())
		rss = append(rss, seg.rss...)
	}
	if total.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: mipsd:", total.firstErr)
	}
	res := result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed}
	if cfg.rec != nil {
		res.Metrics = tracedLatency(total.tracedLat, total.lat)
	} else {
		res.Metrics = endToEnd(total.lat, rss, setup)
	}
	return res, nil
}

// segment is what one mipsd process's share of the run measured.
type segment struct {
	mix   *mixStats
	rss   []float64 // server resident-set samples, MB
	setup time.Duration
}

// runSegment starts a fresh mipsd, runs the scheduled jobs against it
// and stops it.
func runSegment(bin string, sched []*jobClass, rec *recorder) (segment, error) {
	srv, setup, err := startMipsd(bin)
	if err != nil {
		return segment{}, err
	}
	defer srv.stop()
	rss := sampleRSS(srv.cmd.Process.Pid)
	st := runMix(srv.base, sched, mixRate, rec)
	return segment{mix: st, rss: rss(), setup: setup}, nil
}
