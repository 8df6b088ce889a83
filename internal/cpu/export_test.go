package cpu

// Test-only access to trace formation for the external benchmark in
// formation_bench_test.go, which needs compiled corpus images (and so
// the codegen package, which imports this one).

// TraceRecording is one captured hot-path recording: the entry PC and
// the recorded block path, replayable through formation.
type TraceRecording struct {
	entry uint32
	pts   []tracePoint
}

// CaptureTraceRecordings installs a JIT hook on c that keeps a copy of
// every recording that validates into a formable path. Detach it with
// SetJITHook(nil) before replaying.
func CaptureTraceRecordings(c *CPU) *[]TraceRecording {
	var recs []TraceRecording
	c.SetJITHook(func(e JITEvent) {
		if e.Kind == JITFormed {
			recs = append(recs, c.captureRecording(e.PC))
		}
	})
	return &recs
}

// captureRecording copies the in-flight recording for entry.
func (c *CPU) captureRecording(entry uint32) TraceRecording {
	return TraceRecording{entry: entry, pts: append([]tracePoint(nil), c.trec.pts[:c.trec.n]...)}
}

// replayRecording runs formation — validation, flattening, compilation
// and installation — over a captured recording.
func (c *CPU) replayRecording(r TraceRecording) {
	c.trec.n = copy(c.trec.pts[:], r.pts)
	c.finishTraceRecording(r.entry)
	clear(c.trec.pts[:c.trec.n])
	c.trec.n = 0
}

// FormTrace replays formation over a captured recording and returns the
// compiled op count of the installed trace (0 if nothing installed).
func (c *CPU) FormTrace(r TraceRecording) int {
	c.replayRecording(r)
	if tr := c.traceAt(r.entry, &c.trec.ctx); tr != nil {
		return len(tr.ins)
	}
	return 0
}

// staleTranslationRefs counts the pointers the live block and trace
// lists hold past their lengths, plus every block pointer left in the
// trace recording buffer: references that keep dropped translations
// reachable.
func (c *CPU) staleTranslationRefs() int {
	n := 0
	for _, b := range c.liveBlocks[len(c.liveBlocks):cap(c.liveBlocks)] {
		if b != nil {
			n++
		}
	}
	for _, tr := range c.liveTraces[len(c.liveTraces):cap(c.liveTraces)] {
		if tr != nil {
			n++
		}
	}
	for _, pt := range c.trec.pts {
		if pt.b != nil {
			n++
		}
	}
	return n
}
