// Command csmetricsd is the standalone continuous-analysis daemon: it
// watches a spool directory for trace files (*.cst), ingests each new one
// into a metrics store (content-addressed, so re-delivered files are
// free), threads every record through a cumulative summary (the four
// collectors a stored analysis.Summary reads) and a rolling trace-time
// window, and records completed windows plus — on shutdown — a
// whole-session service summary. Query the resulting store with
// `cstrace -mode list/show/trend`.
//
// Usage:
//
//	csmetricsd -store metrics.csms -spool /var/spool/cstrace \
//	    [-cadence 2s] [-window 1m] [-parallel auto] [-label node7] [-for 0]
//
// The daemon stops on SIGINT/SIGTERM (or after -for, when set), flushing
// the partial window and the service row and printing the row's summary
// before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cstrace/internal/metricstore"
	"cstrace/internal/metricsvc"
	"cstrace/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("csmetricsd: ")

	var (
		storePath   = flag.String("store", "", "metrics store file (created if missing)")
		spool       = flag.String("spool", "", "directory watched for .cst trace files; each must arrive whole, by rename")
		cadence     = flag.Duration("cadence", 2*time.Second, "spool poll cadence")
		report      = flag.Duration("report", 30*time.Second, "rolling-report cadence when idle (<0 disables)")
		window      = flag.Duration("window", time.Minute, "rolling trace-time window width")
		parallelStr = flag.String("parallel", "auto", "segment decode workers per file (1 = the fewest, \"auto\" = the whole worker budget)")
		label       = flag.String("label", "", "operator tag recorded on every run")
		forDur      = flag.Duration("for", 0, "exit after this long (0 = run until SIGINT/SIGTERM)")
	)
	flag.Parse()
	if err := run(os.Stdout, *storePath, *spool, *cadence, *report, *window, *parallelStr, *label, *forDur); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, storePath, spool string, cadence, report, window time.Duration, parallelStr, label string, forDur time.Duration) error {
	if storePath == "" || spool == "" {
		return fmt.Errorf("-store and -spool are both required")
	}
	parallel, err := sched.ParseWorkers(parallelStr)
	if err != nil {
		return fmt.Errorf("-parallel: %v", err)
	}
	st, err := metricstore.Open(storePath)
	if err != nil {
		return err
	}
	defer st.Close()
	eng, err := metricsvc.New(metricsvc.Config{
		Store:       st,
		Spool:       spool,
		Poll:        cadence,
		ReportEvery: report,
		Window:      window,
		Parallelism: parallel,
		Label:       label,
		Report:      out,
		Logf:        log.Printf,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if forDur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, forDur)
		defer cancel()
	}
	log.Printf("watching %s -> %s (poll %v, window %v)", spool, storePath, cadence, window)
	if err := eng.Run(ctx); err != nil && err != context.Canceled && err != context.DeadlineExceeded {
		eng.Close()
		return err
	}
	svc, err := eng.Close()
	if err != nil {
		return err
	}
	if svc == nil {
		log.Printf("session ended with no traces ingested")
		return nil
	}
	log.Printf("session %s recorded: %d records, %d windows", svc.ID, svc.Records, eng.Windows())
	svc.WriteText(out)
	return nil
}
