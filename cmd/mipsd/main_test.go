package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mips/internal/corpus"
	"mips/internal/isa"
)

// TestCorpusProgramsShareImages pins that a program compiles once per
// target: repeated calls return the one image, and the other target its
// own.
func TestCorpusProgramsShareImages(t *testing.T) {
	progs := corpusPrograms()
	if len(progs) != len(corpus.All()) {
		t.Fatalf("%d programs, want the corpus's %d", len(progs), len(corpus.All()))
	}
	fib := progs["fib"]
	bare, err := fib(false)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := fib(true)
	if err != nil {
		t.Fatal(err)
	}
	if bare == kern {
		t.Fatal("the bare and kernel targets share one image")
	}
	for _, target := range []struct {
		kernel bool
		want   *isa.Image
	}{{false, bare}, {true, kern}} {
		if got, err := fib(target.kernel); got != target.want || err != nil {
			t.Errorf("kernel=%v: a repeated call returned %p (%v), want the first image %p", target.kernel, got, err, target.want)
		}
	}
}

// TestProgramFuncsCompileOnce pins the memo under concurrent first
// calls: sixteen callers of one program and target cause one compile
// and all get its image, and a failed compile is remembered too.
func TestProgramFuncsCompileOnce(t *testing.T) {
	var compiles atomic.Int32
	failing := errors.New("compile failed")
	compile := func(src string, kernelTarget bool) (*isa.Image, error) {
		compiles.Add(1)
		if src == "" {
			return nil, failing
		}
		return compileCorpus(src, kernelTarget)
	}
	fib, err := corpus.Get("fib")
	if err != nil {
		t.Fatal(err)
	}
	progs := programFuncs([]corpus.Program{fib, {Name: "broken"}}, compile)

	const callers = 16
	images := make([]*isa.Image, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			images[i], errs[i] = progs["fib"](true)
		}()
	}
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Errorf("%d concurrent first calls compiled %d times, want once", callers, n)
	}
	for i := range callers {
		if errs[i] != nil || images[i] != images[0] || images[0] == nil {
			t.Fatalf("caller %d got %p (%v), want the one image %p", i, images[i], errs[i], images[0])
		}
	}

	for range 3 {
		if _, err := progs["broken"](false); !errors.Is(err, failing) {
			t.Fatalf("broken program: error %v, want %v", err, failing)
		}
	}
	if n := compiles.Load(); n != 2 {
		t.Errorf("three calls of a failing program: %d compiles in all, want 2", n)
	}
}
