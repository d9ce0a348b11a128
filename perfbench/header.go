package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/master"
)

// header names the machine, the build and the inputs of a run, so
// that every result says where and on what it was measured.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Sizes      sizes   `json:"sizes"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	SourceHash string  `json:"source_sha256"`

	// Flush policy in effect: the master's edit-log sync setting
	// (left at the library default) and block-file fsync, which the
	// storage layer offers no setting for.
	EditLogSync    bool   `json:"edit_log_sync"`
	BlockFileFsync string `json:"block_file_fsync"`

	// ThrottleScale is the factor applied to the paper's Table 2
	// media speeds; 0 means the media are unthrottled.
	ThrottleScale float64 `json:"throttle_scale"`
}

func newHeader(name string, sz sizes, seed int64, dur time.Duration, traced bool) header {
	return header{
		Workload:       name,
		Seed:           seed,
		Seconds:        dur.Seconds(),
		Traced:         traced,
		Sizes:          sz,
		CPU:            cpuModel(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Commit:         vcsRevision(),
		SourceHash:     sourceHash("."),
		EditLogSync:    master.Config{}.EditLogSync,
		BlockFileFsync: "no setting",
		ThrottleScale:  sz.ThrottleScale,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// vcsRevision is the commit the binary was built from, when the build
// ran inside a git checkout.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceHash digests every .go file and go.mod under root, so a
// result names the source it measured even outside a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
