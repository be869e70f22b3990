package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuProfile is what the benchmark needs of a CPU profile: each sample's
// stack as function names, leaf first, with inlined frames expanded, and
// its CPU time.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []string
	nanos int64
}

// readProfile reads a profile written by runtime/pprof.StartCPUProfile
// through `go tool pprof -traces`, which prints every sample's stack with
// its CPU time.
func readProfile(path string) (*cpuProfile, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return parseTraces(string(out))
}

// parseTraces parses the output of `pprof -traces -unit=ns`: a header,
// then one block per sample between separator lines. A block holds the
// sample's labels ("key:  values"), then its stack, leaf first, one frame
// a line; the first frame line starts with the sample's value, and
// inlined frames end in " (inline)".
func parseTraces(text string) (*cpuProfile, error) {
	p := &cpuProfile{}
	var cur *cpuSample // nil in the header
	flush := func() {
		if cur != nil && len(cur.stack) > 0 {
			p.samples = append(p.samples, *cur)
		}
		cur = &cpuSample{}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		line = strings.TrimLeft(line, " ")
		first, rest, _ := strings.Cut(line, " ")
		if cur == nil || line == "" || strings.HasSuffix(first, ":") {
			continue // header, blank or label line
		}
		if len(cur.stack) == 0 {
			v, err := strconv.ParseInt(strings.TrimSuffix(first, "ns"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			cur.nanos = v
			line = strings.TrimLeft(rest, " ")
		}
		cur.stack = append(cur.stack, strings.TrimSuffix(line, " (inline)"))
	}
	flush()
	if len(p.samples) == 0 {
		return nil, errors.New("pprof traces: no samples")
	}
	return p, nil
}

// pkgOf returns the import path of a Go function symbol such as
// "cpr/internal/smt/sat.(*Solver).solve".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// pkgLayers maps each repository package linked into cprd (by its path
// under cpr/internal/, or "main" for cmd/cprd) to its CPU layer.
// Packages without a layer of their own are charged to the one that
// calls them: model counting, governance and cancellation run inside the
// engine (core); the subject catalog and build info inside admission and
// start-up (serve).
var pkgLayers = map[string]string{
	"patch": "patch", "expr": "expr", "interval": "interval", "synth": "synth", "concolic": "concolic",
	"smt": "smt", "smt/sat": "sat", "smt/portfolio": "sat", "smt/lia": "lia",
	"smt/cache": "smt_cache", "smt/guard": "smt_guard",
	"lang": "lang", "lang/interp": "lang",
	"core": "core", "mc": "core", "govern": "core", "cancel": "core", "faultinject": "core",
	"cegis": "core", "baselines": "core",
	"journal": "journal", "shard": "shard",
	"serve": "serve", "bench": "serve", "buildinfo": "serve", "main": "serve",
}

// repoLayer maps a package path to its CPU layer; ok is false for
// packages outside the repository. A repository package missing from
// pkgLayers is unattributed, which shows as a drop in
// cpu.attributed_frac.
func repoLayer(pkg string) (string, bool) {
	rel, inRepo := strings.CutPrefix(pkg, "cpr/internal/")
	if pkg == "main" {
		rel, inRepo = "main", true
	}
	if !inRepo {
		return "", false
	}
	if l, ok := pkgLayers[rel]; ok {
		return l, true
	}
	return "unattributed", true
}

// layerOf charges one sample: to the layer of its innermost repository
// frame (runtime and standard-library leaves go to their nearest
// repository caller); stacks without one go to gc when they are the
// collector's own work, to serve when they are the HTTP server's or the
// process's start-up, and otherwise to unattributed.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := repoLayer(pkgOf(fn)); ok {
			return l
		}
	}
	for _, fn := range stack {
		switch {
		case fn == "runtime.gcBgMarkWorker", fn == "runtime.bgsweep", fn == "runtime.bgscavenge",
			fn == "runtime._GC", fn == "runtime.gcStart", fn == "runtime.runfinq":
			return "gc"
		case strings.HasPrefix(fn, "net/http."), fn == "runtime.main", fn == "runtime.doInit1":
			return "serve"
		}
	}
	return "unattributed"
}

// cumFuncs are the functions whose any-frame share the trace reports.
var cumFuncs = map[string]string{
	"cum.refine_frac":    "cpr/internal/patch.(*Refiner).Refine",
	"cum.get_model_frac": "cpr/internal/smt.(*Solver).GetModel",
	"cum.simplify_frac":  "cpr/internal/expr.Simplify",
	"cum.malloc_frac":    "runtime.mallocgc",
}

// attribution is a profile folded into layers.
type attribution struct {
	selfNanos  map[string]int64
	cumNanos   map[string]int64
	totalNanos int64
}

func attribute(p *cpuProfile) attribution {
	a := attribution{selfNanos: map[string]int64{}, cumNanos: map[string]int64{}}
	for _, s := range p.samples {
		a.totalNanos += s.nanos
		a.selfNanos[layerOf(s.stack)] += s.nanos
		for name, fn := range cumFuncs {
			for _, f := range s.stack {
				if f == fn {
					a.cumNanos[name] += s.nanos
					break
				}
			}
		}
	}
	return a
}
