package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// envStamp identifies the build and machine a result was measured on.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
}

func stamp(workload string, seed int64, seconds int, trace bool) envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commitID(),
		Seed:       seed,
		Workload:   workload,
		Trace:      trace,
		Seconds:    seconds,
	}
}

// commitID names the measured source: the git commit when the working
// directory is a clean checkout, otherwise a digest of the module's source
// files, so a result taken from an exported tree still identifies its code.
func commitID() string {
	if _, err := os.Stat(".git"); err != nil {
		return "tree-" + sourceDigest(".")
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		id := strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			id += "-dirty"
		}
		return id
	}
	return "tree-" + sourceDigest(".")
}

// sourceDigest hashes the Go sources, go.mod files and embedded programs
// under root, in path order, skipping dot-directories (build output).
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".go", ".mod", ".snet", ".sac":
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics names read by the probes below.
const (
	mHeapLive   = "/gc/heap/live:bytes"
	mHeapStacks = "/memory/classes/heap/stacks:bytes"
	mGoroutines = "/sched/goroutines:goroutines"
	mAllocs     = "/gc/heap/allocs:objects"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// readMetrics reads the named runtime metrics as float64s.
func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// memWindow is the span of each memory window: the reported memory is
// the median over windows of each window's peak, so one moment's burst of
// values in flight moves one window, not the figure.
const memWindow = time.Second

// phase measures one stretch of a workload: CPU time, heap allocations,
// GC CPU share and, through a sampler goroutine, the memory the workload
// holds and the peak goroutine count.  Memory is the live heap as of the
// last GC plus goroutine stacks: what the workload retains, not the
// garbage awaiting collection, whose peak depends on when the collector
// happens to run.  Start it after the stretch's inputs exist and stop it
// when the stretch ends; a GC at start makes the memory belong to this
// stretch, not to earlier ones.
type phase struct {
	cpu0     time.Duration
	allocs0  float64
	gc0, to0 float64

	stop chan struct{}
	done sync.WaitGroup
	// Written by the sampler goroutine, read by end after it has exited.
	win     time.Time // start of the current memory window
	mem     float64   // peak live heap + stacks in the current window, bytes
	windows []float64 // peaks of the finished windows
	gor     float64   // peak goroutines
}

func startPhase() *phase {
	runtime.GC()
	p := &phase{stop: make(chan struct{}), win: time.Now()}
	m := readMetrics(mAllocs, mGCCPU, mTotalCPU)
	p.allocs0, p.gc0, p.to0 = m[0], m[1], m[2]
	p.sample()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	p.cpu0 = cpuTime()
	return p
}

func (p *phase) sample() {
	m := readMetrics(mHeapLive, mHeapStacks, mGoroutines)
	p.mem = max(p.mem, m[0]+m[1])
	p.gor = max(p.gor, m[2])
	if time.Since(p.win) >= memWindow {
		p.windows = append(p.windows, p.mem)
		p.mem, p.win = 0, time.Now()
	}
}

// phaseResult is what a finished phase measured.
type phaseResult struct {
	CPU        time.Duration
	Allocs     float64
	GCCPUFrac  float64
	MemPeakMB  float64
	Goroutines float64
}

func (p *phase) end() phaseResult {
	cpu := cpuTime() - p.cpu0
	close(p.stop)
	p.done.Wait()
	p.sample()
	if len(p.windows) == 0 {
		p.windows = append(p.windows, p.mem) // a stretch shorter than a window
	}
	m := readMetrics(mAllocs, mGCCPU, mTotalCPU)
	r := phaseResult{CPU: cpu, Allocs: m[0] - p.allocs0}
	// The runtime's CPU classes are estimates updated at GC; their ratio
	// is the share the GC took of all CPU time the runtime accounted.
	if tot := m[2] - p.to0; tot > 0 {
		r.GCCPUFrac = (m[1] - p.gc0) / tot
	}
	r.MemPeakMB = median(p.windows) / (1 << 20)
	r.Goroutines = p.gor
	return r
}
