package workload

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// Names lists the five workloads in the paper's presentation order,
// plus the synthetic writer-dominant partition workload.
var Names = []string{"locusroute", "cholesky", "mp3d", "water", "pthor", "partition"}

// New constructs a workload by name. procs is the processor count (the
// paper used 16), scale multiplies the workload size (1.0 is this
// repository's standard configuration), and seed fixes the pseudo-random
// structure.
func New(name string, procs int, scale float64, seed int64) (Program, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("workload: processor count %d must be positive", procs)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale %g must be positive", scale)
	}
	switch name {
	case "locusroute":
		return NewLocusRoute(procs, scale, seed), nil
	case "cholesky":
		return NewCholesky(procs, scale, seed), nil
	case "mp3d":
		return NewMP3D(procs, scale, seed), nil
	case "water":
		return NewWater(procs, scale, seed), nil
	case "pthor":
		if procs < 2 {
			return nil, fmt.Errorf("workload: pthor needs at least 2 processors (each evaluates elements driven by another's wires), got %d", procs)
		}
		return NewPthor(procs, scale, seed), nil
	case "partition":
		return NewPartition(procs, scale, seed), nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (want one of %v)", name, Names)
	}
}

type cacheKey struct {
	name  string
	procs int
	scale float64
	seed  int64
}

var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]*Result{}
)

// ExecuteCached runs the named workload on the lockstep backend, memoizing
// the result: the simulator replays one trace against many (protocol, page
// size) combinations, exactly as the paper generated each application's
// trace once, and the differential tests compare many runtime executions
// against one reference image. Callers must not mutate the returned
// Result.
func ExecuteCached(name string, procs int, scale float64, seed int64) (*Result, error) {
	key := cacheKey{name, procs, scale, seed}
	cacheMu.Lock()
	r, ok := cache[key]
	cacheMu.Unlock()
	if ok {
		return r, nil
	}
	prog, err := New(name, procs, scale, seed)
	if err != nil {
		return nil, err
	}
	r, err = Execute(prog)
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	cache[key] = r
	cacheMu.Unlock()
	return r, nil
}

// GenerateCached generates the named workload's trace, memoized (see
// ExecuteCached).
func GenerateCached(name string, procs int, scale float64, seed int64) (*trace.Trace, error) {
	r, err := ExecuteCached(name, procs, scale, seed)
	if err != nil {
		return nil, err
	}
	return r.Trace, nil
}
