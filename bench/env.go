package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is the fingerprint recorded in every result, so two numbers
// are compared only when they came from comparable machines and builds.
type environment struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// GemmAsmShare is kernels.gemm.asm_share, known after a traced pass;
	// below 1 on amd64 means the assembly micro-kernel was not used.
	GemmAsmShare *float64 `json:"kernels.gemm.asm_share,omitempty"`
}

func fingerprint(procs int) environment {
	env := environment{Commit: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: procs,
		GoVersion: runtime.Version(), CPUModel: cpuModel()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	return env
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when the file or the key is missing (not Linux).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return runtime.GOARCH
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM), or the
// Go runtime's view of memory obtained from the OS where /proc is missing.
func peakRSSMiB() float64 {
	if f := strings.Fields(procField("/proc/self/status", "VmHWM")); len(f) == 2 && f[1] == "kB" {
		if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
