package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// environment is recorded in every results file, so two files are only
// compared like for like.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
}

func readEnvironment() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GitCommit:  gitCommit(),
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD; a checkout that is not a repository (the
// driver's) records "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// rusage reads the process's resource usage; a failed read is all zeros.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return syscall.Rusage{}
	}
	return ru
}

// cpuTimes is the process's user and system CPU time so far.
func cpuTimes() (user, sys float64) {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	user, sys := cpuTimes()
	return user + sys
}

// machineUserSeconds is the time since boot, summed over every processor,
// that the machine spent in anyone's user code or had taken away by the
// hypervisor for another guest (steal): /proc/stat's user, nice and steal
// columns. Less this process's own user time over the same interval, it is
// the time a neighbour had the processors. System time is left out: kernel
// threads writing back and syncing this process's files are its own work. ok
// is false where there is no /proc/stat to read.
func machineUserSeconds() (seconds float64, ok bool) {
	const userHZ = 100 // the unit of /proc/stat on every Linux port
	f := strings.Fields(firstLine("/proc/stat"))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	var ticks float64
	for _, i := range []int{1, 2, 8} { // user, nice, steal
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, false
		}
		ticks += v
	}
	return ticks / userHZ, true
}

// neighbourWatch remembers the clocks at the start of an interval.
type neighbourWatch struct {
	machine, own float64
	start        time.Time
}

func watchNeighbours() neighbourWatch {
	machine, _ := machineUserSeconds()
	own, _ := cpuTimes()
	return neighbourWatch{machine: machine, own: own, start: time.Now()}
}

// share is the part of the machine's processor time since the watch began
// that a neighbour had: 0 on a quiet box, and where /proc/stat cannot say.
func (n neighbourWatch) share() float64 {
	machine, _ := machineUserSeconds()
	own, _ := cpuTimes()
	capacity := time.Since(n.start).Seconds() * float64(runtime.NumCPU())
	return max(0, (machine-n.machine)-(own-n.own)) / capacity
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// gcCPUSeconds is the runtime's estimate of CPU time spent in the collector.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

var spinSink atomic.Uint64

// spinMS times a fixed pure-CPU loop run on every processor at once (best of
// three): how long the box takes to do a known amount of work with all the
// cores the program counts on. Read before and after a workload, it tells a
// neighbour's burst on a shared box (a core gone, a clock throttled) from
// the program's own speed.
func spinMS() float64 {
	best := time.Duration(1 << 62)
	for range 3 {
		t0 := time.Now()
		var wg sync.WaitGroup
		for range runtime.GOMAXPROCS(0) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := uint64(1)
				for range 12_000_000 {
					x = x*6364136223846793005 + 1442695040888963407
				}
				spinSink.Add(x)
			}()
		}
		wg.Wait()
		best = min(best, time.Since(t0))
	}
	return float64(best) / 1e6
}
