package obs

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/telemetry"
)

// Flags bundles the observability CLI flags shared by every cmd:
//
//	-trace <file>         full JSONL event trace
//	-metrics-addr <addr>  /metrics, /debug/vars, /debug/flight, /debug/pprof
//	-flight <file>        flight-recorder dump sink (one JSON dump per line)
//	-flight-cap <n>       flight ring capacity in events
//
// Setting -flight or -metrics-addr builds a Plane: the flight recorder and
// burstiness probes join the run's tracer fan-out, fault events and
// rejection storms dump to the -flight file, and the metrics endpoint gains
// the live ops routes.
//
// Usage:
//
//	var of obs.Flags
//	of.Register(fs)
//	fs.Parse(args)
//	tracer, err := of.Activate()
//	defer of.Close()
type Flags struct {
	Trace       string
	MetricsAddr string
	Flight      string
	FlightCap   int

	plane      *Plane
	file       *os.File
	jsonl      *telemetry.JSONL
	flightFile *os.File
	flightMu   sync.Mutex
	flightErr  error
	server     *telemetry.Server
}

// Register binds the flags onto fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write a JSONL event trace to this path")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars, /debug/flight and /debug/pprof on host:port for the run")
	fs.StringVar(&f.Flight, "flight", "", "write flight-recorder dumps (fault-triggered + final) to this path, one JSON dump per line")
	fs.IntVar(&f.FlightCap, "flight-cap", 0, "flight recorder ring capacity in events (default 4096)")
}

// Activate opens the configured sinks and returns the tracer to instrument
// with: a JSONL sink when -trace is set, the obs plane (flight recorder +
// probes, plus the HTTP endpoint and metrics bridge when -metrics-addr is
// set) when -flight or -metrics-addr is, all fanned out together, and Nop
// when nothing is enabled. Call Close when the run finishes.
func (f *Flags) Activate() (telemetry.Tracer, error) {
	tracers := make([]telemetry.Tracer, 0, 3)
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("obs: -trace: %w", err)
		}
		f.file = file
		f.jsonl = telemetry.NewJSONL(file)
		tracers = append(tracers, f.jsonl)
	}
	if f.Flight != "" || f.MetricsAddr != "" {
		var sink func(Dump)
		if f.Flight != "" {
			file, err := os.Create(f.Flight)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("obs: -flight: %w", err)
			}
			f.flightFile = file
			sink = f.writeDump
		}
		f.plane = NewPlane(Options{
			FlightCap: f.FlightCap,
			OnDump:    sink,
		})
		f.plane.Start()
		tracers = append(tracers, f.plane)
		if f.MetricsAddr != "" {
			server, err := telemetry.Serve(f.MetricsAddr, f.plane.Registry, f.plane.Mounts()...)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("obs: -metrics-addr: %w", err)
			}
			f.server = server
			tracers = append(tracers, telemetry.NewMetrics(f.plane.Registry))
		}
	}
	return telemetry.Multi(tracers...), nil
}

// writeDump appends one dump line to the -flight file, keeping the first
// write error sticky.
func (f *Flags) writeDump(d Dump) {
	f.flightMu.Lock()
	defer f.flightMu.Unlock()
	if f.flightErr != nil || f.flightFile == nil {
		return
	}
	f.flightErr = d.WriteLine(f.flightFile)
}

// Plane returns the live plane (nil unless -flight or -metrics-addr was set
// and Activate has run).
func (f *Flags) Plane() *Plane { return f.plane }

// Registry returns the registry backing the plane (nil when no plane).
func (f *Flags) Registry() *telemetry.Registry {
	if f.plane == nil {
		return nil
	}
	return f.plane.Registry
}

// MetricsURL returns the served /metrics URL, or "" when disabled.
func (f *Flags) MetricsURL() string {
	if f.server == nil {
		return ""
	}
	return "http://" + f.server.Addr() + "/metrics"
}

// Close flushes and releases every sink Activate opened: the HTTP server
// first, then the plane (whose Close takes the final flight dump), then the
// files. It returns the first error — including sticky JSONL or flight
// write errors.
func (f *Flags) Close() error {
	var first error
	if f.server != nil {
		if err := f.server.Close(); err != nil && first == nil {
			first = err
		}
		f.server = nil
	}
	if f.plane != nil {
		f.plane.Close()
		f.plane = nil
	}
	f.flightMu.Lock()
	if f.flightErr != nil && first == nil {
		first = f.flightErr
	}
	if f.flightFile != nil {
		if err := f.flightFile.Close(); err != nil && first == nil {
			first = err
		}
		f.flightFile = nil
	}
	f.flightMu.Unlock()
	if f.jsonl != nil {
		if err := f.jsonl.Err(); err != nil && first == nil {
			first = err
		}
		f.jsonl = nil
	}
	if f.file != nil {
		if err := f.file.Close(); err != nil && first == nil {
			first = err
		}
		f.file = nil
	}
	return first
}
