package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"prdrb/internal/telemetry"
)

// hostHeader is the machine shape every output starts with: a number means
// nothing without it.
type hostHeader struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	HostCPUs    int    `json:"host_cpus"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	GitDescribe string `json:"git_describe"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
}

func newHostHeader(seed uint64, seconds int) hostHeader {
	return hostHeader{
		GOMAXPROCS:  benchProcs(),
		HostCPUs:    runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		GitDescribe: gitDescribe(),
		Seed:        seed,
		Seconds:     seconds,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitDescribe asks git only when the module root is a git work tree, so a
// bare source checkout starts no process.
func gitDescribe() string {
	if _, err := os.Stat(filepath.Join(moduleRoot(), ".git")); err != nil {
		return "unknown"
	}
	return telemetry.GitDescribe()
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod; the benchmark's outputs live under <root>/benchmark/out.
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// outDirOverride redirects the output directory (tests point it at a
// temporary directory).
var outDirOverride string

func outDir() string {
	if outDirOverride != "" {
		return outDirOverride
	}
	return filepath.Join(moduleRoot(), "benchmark", "out")
}
