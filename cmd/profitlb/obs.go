package main

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"profitlb/internal/obs"
)

// obsSession wires the -metrics/-trace/-pprof flags into one
// observability scope for a CLI run: an in-memory registry dumped to
// -metrics on Close, a JSONL trace stream written as events arrive, and
// an optional pprof+metrics HTTP server. With none of the flags given
// the session is inert and Scope() returns nil — the run stays on the
// uninstrumented (bit-identical) path.
type obsSession struct {
	scope       *obs.Scope
	metricsPath string
	traceFile   *os.File
	jsonl       *obs.JSONL
	stopPprof   func() error
}

// openObs builds the session from the three flag values.
func openObs(metricsPath, tracePath, pprofAddr string) (*obsSession, error) {
	s := &obsSession{metricsPath: metricsPath}
	if metricsPath == "" && tracePath == "" && pprofAddr == "" {
		return s, nil
	}
	reg := obs.NewRegistry()
	var sink obs.Sink
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		s.traceFile = f
		s.jsonl = obs.NewJSONL(f)
		sink = s.jsonl
	}
	s.scope = obs.NewScope(reg, sink)
	if pprofAddr != "" {
		addr, stop, err := obs.Serve(pprofAddr, reg)
		if err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("pprof server: %w", err)
		}
		s.stopPprof = stop
		fmt.Fprintf(os.Stderr, "profitlb: serving pprof + metrics on http://%s/debug/pprof/ and /metrics\n", addr)
	}
	return s, nil
}

// Scope returns the scope to thread through the run (nil when no
// observability flag was given).
func (s *obsSession) Scope() *obs.Scope { return s.scope }

// Close flushes the session: the registry is dumped to the -metrics
// path (Prometheus text, or JSON when the path ends in .json), the
// trace file is closed with its sticky write error surfaced, and the
// pprof server is stopped. Idempotent, so it can be deferred for error
// paths and still called explicitly to collect the flush error.
func (s *obsSession) Close() error {
	var errs []error
	if s.scope != nil {
		errs = append(errs, writeMetrics(s.metricsPath, s.scope.Metrics)) // Join drops a nil
		s.metricsPath = ""
	}
	if s.jsonl != nil {
		if err := s.jsonl.Err(); err != nil {
			errs = append(errs, fmt.Errorf("trace stream: %w", err))
		}
		s.jsonl = nil
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("trace file: %w", err))
		}
		s.traceFile = nil
	}
	if s.stopPprof != nil {
		if err := s.stopPprof(); err != nil {
			errs = append(errs, fmt.Errorf("pprof server: %w", err))
		}
		s.stopPprof = nil
	}
	return errors.Join(errs...)
}

// writeMetrics dumps the registry to path — Prometheus text, or JSON
// when the path ends in .json — and reports the first of the write and
// close errors. An empty path writes nothing.
func writeMetrics(path string, reg *obs.Registry) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics file: %w", err)
	}
	if strings.HasSuffix(path, ".json") {
		err = reg.WriteJSON(f)
	} else {
		err = reg.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("metrics file: %w", err)
	}
	return nil
}
