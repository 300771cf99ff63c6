// Command ccserve runs the multi-tenant service plane over warm clique
// sessions: a JSON-over-HTTP API multiplexing many callers over a budgeted
// pool of simulator sessions, with per-(size, op) admission queues,
// work-conserving dispatch, and per-tenant accounting. An idle queue's
// dispatcher serves a request at once; a busy one next drains what queued
// while it was in service (at most -max-batch requests) and serves it on
// one pooled session, one session call per request.
//
// Usage:
//
//	ccserve [-addr :8035] [-budget-mb 256] [-queue-cap 64]
//	        [-tenant-queue-cap 32] [-max-batch 16]
//	        [-min-size 2] [-max-size 512] [-workers N]
//
// Endpoints:
//
//	POST /v1/{op}   op ∈ matmul, matmul-bool, distance-product,
//	                apsp, triangles, sparse-square
//	GET  /stats     pool, queue, and tenant ledger snapshot
//	GET  /healthz   200 while serving, 503 while draining
//
// SIGINT/SIGTERM drain gracefully: admission seals, every admitted
// request is answered, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/serve"
)

var (
	addr           = flag.String("addr", ":8035", "listen address")
	budgetMB       = flag.Int64("budget-mb", 256, "session pool memory budget in MiB (0 = unbounded)")
	queueCap       = flag.Int("queue-cap", 64, "per-(size, op) admission queue capacity")
	tenantQueueCap = flag.Int("tenant-queue-cap", 0, "per-tenant share of each queue (0 = half the queue)")
	maxBatch       = flag.Int("max-batch", 16, "max requests one dispatch drains onto a pooled session")
	minSize        = flag.Int("min-size", 2, "smallest served instance size")
	maxSize        = flag.Int("max-size", 512, "largest served instance size")
	workers        = flag.Int("workers", 0, "session worker goroutines (0 = GOMAXPROCS)")
	drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
)

// config is the service plane the flags describe. A zero -budget-mb is
// unbounded, which serve.Config spells as a negative budget (its zero is
// the 256 MiB default).
func config() serve.Config {
	budget := *budgetMB << 20
	if budget == 0 {
		budget = -1
	}
	var sessOpts []cc.SessionOption
	if *workers > 0 {
		sessOpts = append(sessOpts, cc.WithWorkers(*workers))
	}
	return serve.Config{
		MemoryBudget:   budget,
		QueueCap:       *queueCap,
		TenantQueueCap: *tenantQueueCap,
		MaxBatch:       *maxBatch,
		MinSize:        *minSize,
		MaxSize:        *maxSize,
		SessionOptions: sessOpts,
	}
}

func main() {
	flag.Parse()
	srv := serve.New(config())

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("ccserve listening on %s (budget %d MiB, queues %d deep, work-conserving drains ≤%d, sizes %d–%d)",
		*addr, *budgetMB, *queueCap, *maxBatch, *minSize, *maxSize)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("ccserve: %v — draining", sig)
	case err := <-errc:
		log.Fatalf("ccserve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the service plane so
	// every admitted request is answered before exit.
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("ccserve: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("ccserve: drain: %v", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("ccserve: %v", err)
	}
	fmt.Println("ccserve: drained cleanly")
}
