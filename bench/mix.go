package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// The job classes, one per documented /v1 use. There is no recorded
// traffic to weight them by, so the schedule runs each class equally
// often and claims no traffic shape.
var jobClasses = []jobClass{
	{name: "fork/fib", body: map[string]any{"template": mixTemplate}},
	{name: "cold_kernel/fib", body: map[string]any{"program": "fib", "kernel": true}},
	{name: "cold_kernel/strings", body: map[string]any{"program": "strings", "kernel": true}},
	{name: "cold_bare/calc", body: map[string]any{"program": "calc"}},
	{name: "cold_bare/puzzle1", body: map[string]any{"program": "puzzle1"}},
	{name: "cold_bare/tokenizer", body: map[string]any{"program": "tokenizer"}},
	{name: "cold_bare/queens", body: map[string]any{"program": "queens"}},
	// Fork, wait for it to finish, download its snapshot and resume it on
	// the fast engine; the restored job is the one that must print fib's
	// output.
	{name: "migrate/fib", body: map[string]any{"template": mixTemplate}, migrate: true},
}

// mixTemplate is the golden template the fork and migrate jobs fork,
// created at set-up with templateBody.
const mixTemplate = "fib-kernel"

var templateBody = map[string]any{"program": "fib", "kernel": true}

// mixRate is the open loop's fixed arrival rate, in jobs per second.
const mixRate = 100

// pollInterval spaces the poller's sweeps over unfinished jobs. Latency
// is taken from the server's finish stamp, so polling adds nothing to it.
const pollInterval = 2 * time.Millisecond

// drainTimeout bounds the wait for jobs still unfinished when the
// schedule ends; jobs that do not finish in time count as failed.
const drainTimeout = 20 * time.Second

type jobClass struct {
	name    string         // kind/program
	body    map[string]any // POST /v1/jobs body, without its name
	migrate bool
}

// program is the corpus program whose output the job must print.
func (c *jobClass) program() string { return c.name[strings.IndexByte(c.name, '/')+1:] }

// schedule returns n jobs round-robin over the classes, each round in a
// seeded order, so the seed changes only the order.
func schedule(seed int64, n int) []*jobClass {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*jobClass, 0, n+len(jobClasses))
	for len(out) < n {
		for _, k := range rng.Perm(len(jobClasses)) {
			out = append(out, &jobClasses[k])
		}
	}
	return out[:n]
}

// jobStatus is the part of the service's job Status the client reads.
type jobStatus struct {
	ID       string    `json:"id"`
	State    string    `json:"state"`
	Output   string    `json:"output"`
	Error    string    `json:"error"`
	Finished time.Time `json:"finished"`
}

// mixStats is what one run of the mix measured.
type mixStats struct {
	lat, tracedLat samples // class -> ms from when the job was due to its finish stamp
	attempted      int
	failed         int
	firstErr       error

	submitMs, statusMs, snapshotMs, lagMs []float64
	polls                                 int
}

// merge adds the outcome of another run of the mix.
func (s *mixStats) merge(o *mixStats) {
	for class, xs := range o.lat {
		s.lat[class] = append(s.lat[class], xs...)
	}
	for class, xs := range o.tracedLat {
		s.tracedLat[class] = append(s.tracedLat[class], xs...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *mixStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// pendingJob is a submitted job the poller is waiting on.
type pendingJob struct {
	class    *jobClass
	due      time.Time
	id       string
	restored bool // migrate: id is the job resumed from the snapshot
	traced   bool
	root     span
}

// newClient returns an HTTP client that holds exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// call sends a request with an optional JSON body. A 2xx response body
// is decoded into out ([]byte receives it raw); any other status is an
// error carrying the service's error envelope.
func call(c *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = b
		return nil
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// runMix drives the job service at base with the scheduled jobs, in an
// open loop at rate jobs per second, over two connections: one submits
// each job when it is due, whether or not earlier jobs have finished;
// the other polls unfinished jobs and moves the migrate jobs'
// snapshots. It returns when every job has finished or drainTimeout
// has passed since the schedule ended. In a traced run (rec != nil)
// even jobs are traced.
func runMix(base string, sched []*jobClass, rate float64, rec *recorder) *mixStats {
	wants, err := expectedOutputs()
	if err != nil {
		return &mixStats{attempted: len(sched), failed: len(sched), firstErr: err}
	}
	submitted := make(chan *pendingJob, len(sched)) // one send per job; never blocks
	sub := &mixStats{}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	go func() {
		defer close(submitted)
		c := newClient()
		defer c.CloseIdleConnections()
		for i, class := range sched {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			sub.lagMs = append(sub.lagMs, ms(time.Since(due)))
			r := opRecorder(rec, i)
			j := &pendingJob{class: class, due: due, traced: r != nil}
			j.root = r.begin(laneSubmit, uint64(i), "bench", "job "+class.name)
			var st jobStatus
			s := j.root.child("http", "POST /v1/jobs")
			err := call(c, "POST", base+"/v1/jobs", withName(class.body, class.name), &st)
			sub.submitMs = append(sub.submitMs, ms(s.end()))
			if err != nil {
				sub.fail(fmt.Errorf("%s: %w", class.name, err))
				continue
			}
			j.id = st.ID
			submitted <- j
		}
	}()

	poll := &mixStats{lat: samples{}, tracedLat: samples{}}
	c := newClient()
	defer c.CloseIdleConnections()
	giveUp := start.Add(time.Duration(len(sched))*interval + drainTimeout)
	var live []*pendingJob
	for open := true; open || len(live) > 0; {
		if len(live) == 0 {
			j, ok := <-submitted
			if !ok {
				break
			}
			live = append(live, j)
		}
	take:
		for open {
			select {
			case j, ok := <-submitted:
				if !ok {
					open = false
				} else {
					live = append(live, j)
				}
			default:
				break take
			}
		}
		if time.Now().After(giveUp) {
			for _, j := range live {
				poll.fail(fmt.Errorf("%s %s: not finished %v after the schedule ended", j.class.name, j.id, drainTimeout))
			}
			break
		}
		kept := live[:0]
		for _, j := range live {
			if !poll.poll(c, base, j, wants[j.class.program()]) {
				kept = append(kept, j)
			}
		}
		live = kept
		time.Sleep(pollInterval)
	}
	// Only when the poller gave up can jobs remain: wait for the
	// submitter and count them.
	for j := range submitted {
		poll.fail(fmt.Errorf("%s %s: not finished %v after the schedule ended", j.class.name, j.id, drainTimeout))
	}

	poll.attempted = len(sched)
	poll.failed += sub.failed
	if poll.firstErr == nil {
		poll.firstErr = sub.firstErr
	}
	poll.submitMs, poll.lagMs = sub.submitMs, sub.lagMs
	return poll
}

// poll checks one job and reports whether the client is done with it.
func (s *mixStats) poll(c *http.Client, base string, j *pendingJob, want string) bool {
	var st jobStatus
	sp := j.root.childOn(lanePoll, "http", "GET /v1/jobs/{id}")
	err := call(c, "GET", base+"/v1/jobs/"+j.id, nil, &st)
	s.statusMs = append(s.statusMs, ms(sp.end()))
	s.polls++
	switch {
	case err != nil:
		s.fail(fmt.Errorf("%s: %w", j.class.name, err))
		return true
	case st.State == "queued" || st.State == "running":
		return false
	case st.State != "done":
		s.fail(fmt.Errorf("%s %s ended %s: %s", j.class.name, j.id, st.State, st.Error))
		return true
	case j.class.migrate && !j.restored:
		var snap []byte
		sp = j.root.childOn(lanePoll, "http", "GET /v1/jobs/{id}/snapshot")
		err := call(c, "GET", base+"/v1/jobs/"+j.id+"/snapshot", nil, &snap)
		s.snapshotMs = append(s.snapshotMs, ms(sp.end()))
		if err == nil {
			sp = j.root.childOn(lanePoll, "http", "POST /v1/jobs (restore)")
			body := map[string]any{"snapshot": snap, "engine": "fast", "name": j.class.name}
			err = call(c, "POST", base+"/v1/jobs", body, &st)
			sp.end()
		}
		if err != nil {
			s.fail(fmt.Errorf("%s: %w", j.class.name, err))
			return true
		}
		j.id, j.restored = st.ID, true
		return false
	case st.Output != want:
		s.fail(fmt.Errorf("%s %s: output %q, want %q", j.class.name, j.id, st.Output, want))
		return true
	}
	j.root.end()
	lat := s.lat
	if j.traced {
		lat = s.tracedLat
	}
	lat.add(j.class.name, ms(st.Finished.Sub(j.due)))
	return true
}

// withName returns the job body with its display name set; the service
// reports it back in the job's terminal sample.
func withName(body map[string]any, name string) map[string]any {
	out := map[string]any{"name": name}
	for k, v := range body {
		out[k] = v
	}
	return out
}
