// Command nfvd serves the nfvchain optimizer and simulator as a
// long-running HTTP daemon: a bounded job queue, a worker pool reusing
// warm simulators, a content-addressed result cache, and cooperative job
// cancellation. See the "Serving mode" section of the README for the API.
//
// Usage:
//
//	nfvd                       # serve on 127.0.0.1:8372
//	nfvd -addr 127.0.0.1:0     # serve on a random free port (printed)
//	nfvd -workers 8 -queue 256 # bigger pool, deeper queue
//	nfvd -retain 100000        # keep more finished jobs queryable
//
// The daemon prints "nfvd: listening on http://HOST:PORT" once ready and
// shuts down gracefully on SIGINT/SIGTERM: intake stops (new submissions
// answer 503), queued and running jobs drain, and only then does the
// process exit. Jobs still running when -drain expires are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nfvchain/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "nfvd:", err)
		os.Exit(1)
	}
}

// run boots the daemon. ready, if non-nil, receives the bound address once
// the listener is up (used by tests); stdout carries the human-readable
// startup line so scripts can scrape the chosen port.
func run(args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("nfvd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:8372", "listen address (use :0 for a random port)")
		workers = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue   = fs.Int("queue", 64, "job queue depth (a full queue answers 429)")
		cache   = fs.Int("cache", 256, "result cache entries (-1 disables caching)")
		retain  = fs.Int("retain", 4096, "finished jobs kept for status and result queries; the oldest is forgotten first (0 = 4096)")
		drain   = fs.Duration("drain", 30*time.Second, "graceful shutdown budget before running jobs are cancelled")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *retain < 0 {
		return fmt.Errorf("-retain %d is negative", *retain)
	}

	// Register the signal handler before announcing readiness so a SIGINT
	// arriving right after the startup line always drains gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	svc := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		RetainJobs:   *retain,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "nfvd: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately via the default handler

	fmt.Fprintln(stdout, "nfvd: shutting down (draining jobs)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then drain the job queue; an error
	// from either still lets the other finish.
	httpErr := httpSrv.Shutdown(drainCtx)
	svcErr := svc.Shutdown(drainCtx)
	if svcErr != nil {
		fmt.Fprintln(stdout, "nfvd: drain budget exceeded, running jobs cancelled")
	}
	<-serveErr // always http.ErrServerClosed after Shutdown
	if httpErr != nil && !errors.Is(httpErr, context.DeadlineExceeded) {
		return httpErr
	}
	fmt.Fprintln(stdout, "nfvd: bye")
	return nil
}
