// Command alsd is the approximate-logic-synthesis daemon: it serves
// circuit+constraint jobs over HTTP/JSON on a bounded worker pool with a
// content-addressed result cache, per-tenant rate limiting, SSE progress
// streaming, /statsz counters, pprof, and graceful drain on SIGTERM.
//
// Quickstart:
//
//	alsd -addr :8337 &
//	curl -s localhost:8337/v1/jobs -d '{
//	  "circuit": "'"$(sed -e 's/$/\\n/' mult.aag | tr -d '\n')"'",
//	  "flow": "dpsa", "metric": "er", "threshold": 0.05
//	}'
//
// A second identical submission answers from the cache with a
// byte-identical circuit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpals/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("alsd: ")

	var (
		addr         = flag.String("addr", ":8337", "listen address")
		workers      = flag.Int("workers", 0, "synthesis workers (0 = all CPUs)")
		queueDepth   = flag.Int("queue", 64, "max queued jobs before 503")
		cacheEntries = flag.Int("cache-entries", 1024, "result cache entry cap")
		cacheBytes   = flag.Int64("cache-bytes", 256<<20, "result cache byte cap")
		rate         = flag.Float64("rate", 0, "per-tenant submissions/second (0 = unlimited)")
		burst        = flag.Int("burst", 8, "per-tenant burst allowance")
		maxTime      = flag.Duration("max-time-limit", 5*time.Minute, "hard per-job wall-clock cap")
		threads      = flag.Int("threads-per-job", 0, "engine threads per job (0 = CPUs/workers)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")
	)
	flag.Parse()

	srv := server.New(server.Config{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		CacheEntries:  *cacheEntries,
		CacheBytes:    *cacheBytes,
		RatePerSec:    *rate,
		Burst:         *burst,
		MaxTimeLimit:  *maxTime,
		ThreadsPerJob: *threads,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		s := <-sig
		log.Printf("received %v, draining (in-flight jobs return best-so-far)", s)
		go func() {
			<-sig
			log.Print("second signal, exiting now")
			os.Exit(1)
		}()
		// Drain first so every accepted job has answered with its
		// best-so-far circuit, then close the listener and let Shutdown
		// flush the open responses. ListenAndServe returns the moment the
		// listener closes — main must wait on this channel, not exit, or
		// in-flight responses are cut off mid-write.
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		close(drained)
	}()

	log.Printf("listening on %s", *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "alsd: %v\n", err)
		os.Exit(1)
	}
	<-drained
	log.Print("drained, bye")
}
