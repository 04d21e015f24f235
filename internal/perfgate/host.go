package perfgate

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Host fingerprints the machine a benchmark ran on. Numbers are only
// comparable against a baseline recorded on a like host; the gate
// reports (but does not fail on) fingerprint drift, since CI runners
// legitimately rotate hardware.
type Host struct {
	// OS is runtime.GOOS.
	OS string `json:"os"`
	// Arch is runtime.GOARCH.
	Arch string `json:"arch"`
	// CPUs is runtime.NumCPU at stamp time.
	CPUs int `json:"cpus"`
	// GoVersion is the toolchain that built the harness.
	GoVersion string `json:"go_version"`
	// Hostname is best-effort ("" when unavailable).
	Hostname string `json:"hostname,omitempty"`
	// CPUModel is the /proc/cpuinfo model name on Linux, best-effort.
	CPUModel string `json:"cpu_model,omitempty"`
	// Caches lists cpu0's caches as Linux reports them under
	// /sys/devices/system/cpu/cpu0/cache, best-effort: a file that
	// cannot be read leaves its field out, and no readable file at all
	// leaves the list out.
	Caches []Cache `json:"caches,omitempty"`
}

// Cache is one CPU cache of the host fingerprint.
type Cache struct {
	// Level is the cache level (1, 2, 3).
	Level int `json:"level,omitempty"`
	// Type is "Data", "Instruction" or "Unified".
	Type string `json:"type,omitempty"`
	// Size is the size as the kernel prints it, e.g. "32K" or "36608K".
	Size string `json:"size,omitempty"`
}

// cacheDir is where Linux describes cpu0's caches, one index* directory
// per cache.
const cacheDir = "/sys/devices/system/cpu/cpu0/cache"

// Meta is the provenance header stamped into every benchmark artifact:
// raw per-run reports (cmd/fmbench) and aggregated grid reports
// (cmd/fmgrid) both carry it.
type Meta struct {
	// SchemaVersion is ReportSchemaVersion at write time.
	SchemaVersion int `json:"schema_version"`
	// GitSHA is the commit the harness ran from ("unknown" outside a
	// git checkout).
	GitSHA string `json:"git_sha"`
	// GeneratedUnix is the wall-clock stamp time in Unix seconds.
	GeneratedUnix int64 `json:"generated_unix"`
	// Host fingerprints the machine.
	Host Host `json:"host"`
}

// ReportSchemaVersion versions both BENCH report schemas (raw and
// grid); bump it when either changes incompatibly, and the gate will
// refuse to compare across versions.
const ReportSchemaVersion = 2

// NewMeta stamps the current commit, time, and host.
func NewMeta() Meta {
	return Meta{
		SchemaVersion: ReportSchemaVersion,
		GitSHA:        GitSHA(),
		GeneratedUnix: time.Now().Unix(),
		Host:          HostFingerprint(),
	}
}

// HostFingerprint collects the current machine's fingerprint.
func HostFingerprint() Host {
	h := Host{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	if name, err := os.Hostname(); err == nil {
		h.Hostname = name
	}
	h.CPUModel = cpuModel()
	h.Caches = cachesFrom(cacheDir)
	return h
}

// cachesFrom reads the level, type and size of every index* cache
// directory under dir; unreadable files are omitted, not errors.
func cachesFrom(dir string) []Cache {
	idx, _ := filepath.Glob(filepath.Join(dir, "index*"))
	var caches []Cache
	for _, d := range idx {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		var c Cache
		c.Level, _ = strconv.Atoi(read("level"))
		c.Type = read("type")
		c.Size = read("size")
		if c != (Cache{}) {
			caches = append(caches, c)
		}
	}
	return caches
}

// cpuModel reads the first "model name" line of /proc/cpuinfo
// (best-effort, Linux-only; "" elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// GitSHA returns the current HEAD commit (short form), or "unknown"
// when git or a checkout is unavailable — artifacts must still be
// writable from exported tarballs and temp dirs.
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if sha == "" {
		return "unknown"
	}
	return sha
}
