package telemetry

import (
	"net"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on DefaultServeMux
	"os"
	"runtime/pprof"
	"strings"
)

// ServePprof starts an HTTP server exposing the net/http/pprof endpoints
// on addr in a background goroutine and returns the bound address (useful
// with ":0"). Listen failures surface immediately; serve errors after a
// successful bind are ignored — profiling must never abort a run.
func ServePprof(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = http.Serve(ln, nil) }()
	return ln.Addr().String(), nil
}

// StartCPUProfile begins writing a CPU profile to path and returns the
// stop function that finishes and closes it.
func StartCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// ChromeTracePath derives the Chrome trace filename written alongside a
// JSONL trace: "x.jsonl" -> "x.chrome.json", anything else gets
// ".chrome.json" appended.
func ChromeTracePath(jsonlPath string) string {
	return strings.TrimSuffix(jsonlPath, ".jsonl") + ".chrome.json"
}
