package harness

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Fixed engine and admission settings, the same for every workload.
const (
	engineSeed  = 20140622 // constant: --seed drives data and slots, never the server
	workers     = 2
	maxInFlight = 2
	maxQueue    = 16
	cacheTTL    = 10 * time.Minute
)

// StackConfig is what distinguishes one serving stack from another.
type StackConfig struct {
	StorePath  string
	SampleRows int
	CacheMB    int
	// Tracer is attached for traced (per-layer) runs only.
	Tracer *obs.Tracer
}

// Stack is the serving stack composed from public constructors exactly as
// cmd/aqpd composes it, plus the workload UDF library.
type Stack struct {
	Engine *core.Engine
	Server *serve.Server
	// Full is the opened (block-compressed, mmap-backed) table.
	Full *table.Table
	// OpenS and SampleS time table.OpenStore+RegisterTable and BuildSamples.
	OpenS, SampleS float64

	store io.Closer
	wl    *wire.Listener
	hs    *http.Server
}

// OpenStack opens the store and builds engine, sample and admission layer.
func OpenStack(cfg StackConfig) (*Stack, error) {
	t0 := time.Now()
	full, closer, err := table.OpenStore(cfg.StorePath)
	if err != nil {
		return nil, err
	}
	ecfg := core.Config{
		Seed:          engineSeed,
		Workers:       workers,
		Backing:       table.BackingCompressed,
		SampleBacking: table.BackingCompressed,
		CacheBytes:    int64(cfg.CacheMB) << 20,
		Obs:           cfg.Tracer,
	}
	if cfg.CacheMB > 0 {
		ecfg.CacheTTL = cacheTTL
	}
	eng := core.New(ecfg)
	s := &Stack{Engine: eng, Full: full, store: closer}
	if err := eng.RegisterTable(TableName, full); err != nil {
		s.Close()
		return nil, err
	}
	s.OpenS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := eng.BuildSamples(TableName, cfg.SampleRows); err != nil {
		s.Close()
		return nil, err
	}
	s.SampleS = time.Since(t0).Seconds()
	for _, u := range workload.UDFLibrary {
		eng.RegisterUDF(u.Name, u.Fn)
	}
	scfg := serve.Config{MaxInFlight: maxInFlight, MaxQueue: maxQueue}
	if cfg.Tracer != nil {
		scfg.Metrics = cfg.Tracer.Registry()
	}
	s.Server = serve.New(eng, scfg)
	return s, nil
}

// Listen starts the MySQL-wire and HTTP listeners on ephemeral loopback
// ports and returns their addresses.
func (s *Stack) Listen() (wireAddr, httpAddr string, err error) {
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	s.wl = wire.Serve(wln, s.Server, wire.Config{})
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	s.hs = &http.Server{Handler: serve.NewHTTPHandler(s.Server, serve.HTTPOptions{})}
	go s.hs.Serve(hln) //nolint:errcheck // returns ErrServerClosed on Close
	return s.wl.Addr().String(), hln.Addr().String(), nil
}

// Close drains the listeners (aqpd's order) and releases the store mapping.
func (s *Stack) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.wl != nil {
		s.wl.Drain()
	}
	if s.Server != nil {
		s.Server.Shutdown(ctx) //nolint:errcheck // best-effort drain on exit
	}
	if s.hs != nil {
		s.hs.Shutdown(ctx) //nolint:errcheck
	}
	if s.wl != nil {
		s.wl.Shutdown(ctx) //nolint:errcheck
	}
	s.Engine.Close() //nolint:errcheck
	s.store.Close()  //nolint:errcheck
}

// readyLine is the one line the serving child prints once it can answer.
type readyLine struct {
	Wire    string  `json:"wire"`
	HTTP    string  `json:"http"`
	OpenS   float64 `json:"open_s"`
	SampleS float64 `json:"sample_s"`
}

// ServeMain is the child process: `aqpload serve -store F -sample N
// -cache-mb M`. It serves until its stdin closes (the parent exited or asked
// it to stop) or it is signalled, then drains and returns the exit code.
func ServeMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var cfg StackConfig
	fs.StringVar(&cfg.StorePath, "store", "", "block store file to open")
	fs.IntVar(&cfg.SampleRows, "sample", 0, "uniform sample rows to build")
	fs.IntVar(&cfg.CacheMB, "cache-mb", 0, "block/answer cache budget in MiB")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stack, err := OpenStack(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqpload serve:", err)
		return 1
	}
	defer stack.Close()
	wireAddr, httpAddr, err := stack.Listen()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqpload serve:", err)
		return 1
	}
	line, _ := json.Marshal(readyLine{wireAddr, httpAddr, stack.OpenS, stack.SampleS})
	fmt.Println(string(line))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	stdinClosed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck // any end of stdin means stop
		close(stdinClosed)
	}()
	select {
	case <-stop:
	case <-stdinClosed:
	}
	return 0
}
