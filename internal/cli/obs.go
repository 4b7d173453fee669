package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/obs"
)

// LogFlags carries the -log-level / -log-format pair every command
// registers. Defaults come from the FFR_LOG environment variable
// ("level" or "level,format", e.g. FFR_LOG=debug,json), so a whole
// fleet can be made chatty without touching each invocation.
type LogFlags struct {
	Level  string
	Format string
}

// RegisterLog registers -log-level and -log-format on the default flag
// set, seeding their defaults from FFR_LOG. Call before flag.Parse.
func RegisterLog() *LogFlags {
	level, format := logDefaults(os.Getenv("FFR_LOG"))
	f := &LogFlags{}
	flag.StringVar(&f.Level, "log-level", level, "log verbosity: debug, info, warn or error (default from FFR_LOG)")
	flag.StringVar(&f.Format, "log-format", format, "log encoding: text or json (default from FFR_LOG \"level,format\")")
	return f
}

// logDefaults decodes the FFR_LOG environment value ("level" or
// "level,format") into flag defaults, leaving the stock info/text pair
// for whatever the variable does not mention.
func logDefaults(env string) (level, format string) {
	level, format = "info", obs.FormatText
	if env == "" {
		return level, format
	}
	parts := strings.SplitN(env, ",", 2)
	if parts[0] != "" {
		level = parts[0]
	}
	if len(parts) == 2 && parts[1] != "" {
		format = parts[1]
	}
	return level, format
}

// Logger validates the parsed flags and builds the command's structured
// stderr logger, tagged with proc=<cmd> so interleaved fleet logs stay
// attributable.
func (f *LogFlags) Logger(cmd string) (*obs.Logger, error) {
	level, err := obs.ParseLevel(f.Level)
	if err != nil {
		return nil, UsageErrorf(cmd, "-log-level must be debug, info, warn or error (got %q)", f.Level)
	}
	format, err := obs.ParseFormat(f.Format)
	if err != nil {
		return nil, UsageErrorf(cmd, "-log-format must be text or json (got %q)", f.Format)
	}
	return obs.NewLogger(os.Stderr, level, format).With(obs.F("proc", cmd)), nil
}

// Profiling carries the -cpuprofile / -memprofile pair of the
// long-running commands, so their hot spots are inspectable with go tool
// pprof.
type Profiling struct {
	CPU string
	Mem string
}

// RegisterProfiling registers -cpuprofile and -memprofile on the default
// flag set. Call before flag.Parse.
func RegisterProfiling() *Profiling {
	p := &Profiling{}
	flag.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	flag.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	return p
}

// Start begins CPU profiling when -cpuprofile was given; defer the
// returned stop function, which finishes it and dumps the -memprofile heap
// snapshot when that was given. With neither flag set stop is a no-op. The
// command's main prefixes a returned error with cmd; stop has no caller to
// return to, so it reports failures on stderr under cmd itself.
func (p *Profiling) Start(cmd string) (func(), error) {
	var cpuFile *os.File
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if p.Mem == "" {
			return
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", cmd, err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize final live-heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", cmd, err)
		}
	}, nil
}

// OpenTrace opens the -trace span journal: spans journal as JSONL to
// path, tagged with the process name. An empty path returns a nil
// tracer (spans still propagate IDs, they just aren't journaled) and a
// no-op close.
func OpenTrace(cmd, path, process string) (*obs.Tracer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: -trace: %w", cmd, err)
	}
	return obs.NewTracer(f, process), f.Close, nil
}

// ServeMetrics starts the -metrics-addr debug listener (Prometheus
// /metrics plus /debug/pprof/) when addr is non-empty, logging the bound
// address. The returned stop function closes the listener; it is non-nil
// even when addr is empty.
func ServeMetrics(cmd, addr string, reg *obs.Registry, log *obs.Logger) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	bound, stop, err := obs.ServeDebug(addr, reg)
	if err != nil {
		return nil, fmt.Errorf("%s: -metrics-addr: %w", cmd, err)
	}
	log.Info("metrics listener up", obs.F("addr", bound))
	return stop, nil
}
