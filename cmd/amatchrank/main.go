// Command amatchrank is a rank worker process: it loads the background
// graph, listens on a TCP socket, and serves /match and /explore queries
// routed to it by an amatchd coordinator (amatchd -ranks-addr). A rank
// group of N amatchrank processes plus one coordinator is the
// multi-process deployment shape — each worker runs the full serving
// stack (scheduler, result cache, shared NLCC store, budgets), so a
// routed query takes exactly the code path a direct HTTP request would
// and produces byte-identical response bodies.
//
// On connect the worker greets the coordinator with its wire version and
// a structural graph signature; the coordinator refuses a group whose
// workers disagree (or disagree with its own graph), so a worker serving
// a different file can never silently answer queries against the wrong
// data.
//
// A worker is a whole-graph read replica, not a traversal shard: it holds
// the entire graph and answers each routed query alone. Adding workers
// adds query throughput, not graph capacity.
//
// Usage:
//
//	amatchrank -graph g.txt -listen 127.0.0.1:9091
//	           [-querytimeout 30s] [-maxk 6] [-workers N]
//	           [-max-work N] [-max-bytes N] [-cache-bytes N]
//	           [-result-cache-bytes N] [-shared-nlcc=false]
//
// Every flag but -listen is declared by server.RegisterFlags and means what
// it means on amatchd.
//
// The process shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// routed queries.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	"approxmatch/cmd/internal/graphfile"
	"approxmatch/internal/router"
	"approxmatch/internal/server"
)

func main() {
	serving := server.RegisterFlags(flag.CommandLine)
	listen := flag.String("listen", "127.0.0.1:9091", "rank worker listen address")
	flag.Parse()
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	graphPath, cfg := serving()
	if graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	g, err := graphfile.Load(graphPath)
	if err != nil {
		fatal(logger, "load graph", err)
	}
	cfg.Logger = logger
	s := server.NewWithConfig(g, cfg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(logger, "listen", err)
	}
	hello := router.HelloInfo{
		Vertices:  g.NumVertices(),
		Edges:     g.NumDirectedEdges(),
		Signature: router.GraphSignature(g),
	}
	rs := router.NewRankServer(ln, hello, s.RankHandler())
	logger.Info("rank worker serving",
		"addr", rs.Addr(), "vertices", hello.Vertices, "edges", hello.Edges,
		"signature", hello.Signature)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- rs.Serve() }()

	select {
	case err := <-errc:
		if err != nil {
			fatal(logger, "serve", err)
		}
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down")
	rs.Close()
	logger.Info("stopped")
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}
