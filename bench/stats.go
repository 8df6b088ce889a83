package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// samples holds per-class measurements. Operations of different classes
// (programs, job kinds) differ by orders of magnitude, so a percentile
// over the pooled samples would jump whenever the mix shifts across a
// class boundary; classQuantile instead takes the percentile within
// each class and combines the classes by geometric mean.
type samples map[string][]float64

func (s samples) add(class string, v float64) { s[class] = append(s[class], v) }

func (s samples) classQuantile(q float64) float64 {
	var qs []float64
	for _, xs := range s {
		qs = append(qs, quantile(xs, q))
	}
	return geomean(qs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssInterval is how often sampleRSS reads the resident set size.
const rssInterval = 50 * time.Millisecond

// sampleRSS samples the resident set size of process pid every
// rssInterval until the returned function is called; that function
// stops the sampling and returns the samples in MB.
func sampleRSS(pid int) func() []float64 {
	path := fmt.Sprintf("/proc/%d/statm", pid)
	page := float64(os.Getpagesize())
	var out []float64
	read := func() {
		b, err := os.ReadFile(path)
		if err != nil {
			return // the process has exited; keep what was sampled
		}
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				out = append(out, pages*page/(1<<20))
			}
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			read()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(stop)
		<-done
		return out
	}
}
