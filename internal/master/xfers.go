package master

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/xfer"
)

// This file is the master's side of the transfer flight recorder: it
// keeps client-reported records (the client-side dial/ack phases of
// every read and write) in its own bounded log and fans GetTransfers
// out to every live worker so one call yields the cluster-wide
// data-path view that "octopus-cli transfers" renders.

// TransferLog exposes the master's transfer flight recorder (which
// holds client-reported records) for the HTTP endpoint and tests.
func (m *Master) TransferLog() *xfer.Log { return m.xfers }

// ReportTransfers ingests transfer records a client recorded locally,
// mirroring ReportSpans: clients push at the end of an operation so
// their side of the data path survives the client process. Untraced:
// the reporting call itself is bookkeeping, not a namespace operation.
func (s *Service) ReportTransfers(args *rpc.ReportTransfersArgs, _ *rpc.ReportTransfersReply) (err error) {
	defer s.m.trackOpUntraced("reportTransfers", args.ReqID)(&err)
	for _, r := range args.Records {
		s.m.xfers.Append(r)
	}
	return nil
}

// GetTransfers serves one page of transfer records from every source:
// the master's client-reported log plus each live worker's recorder.
// Cursors are per source, so pollers resume each source from its own
// Page.Next. Untraced: pollers would churn the trace store.
func (s *Service) GetTransfers(args *rpc.GetTransfersArgs, reply *rpc.GetTransfersReply) (err error) {
	defer s.m.trackOpUntraced("getTransfers", args.ReqID)(&err)
	reply.Sources = s.m.assembleTransfers(args.Since, args.Op, args.Limit)
	return nil
}

// assembleTransfers pages the master's own log and fans out to every
// live worker concurrently (the AssembleTrace pattern). A worker that
// fails to answer contributes its error instead of failing the whole
// call — a partial cluster view beats none.
func (m *Master) assembleTransfers(since uint64, op string, limit int) []rpc.TransferSource {
	masterSrc := rpc.TransferSource{
		Source: "master",
		Page:   m.xfers.Since(since, op, limit),
		Counts: m.xfers.Counts(),
	}

	type workerAddr struct {
		id   core.WorkerID
		addr string
	}
	m.mu.RLock()
	addrs := make([]workerAddr, 0, len(m.workers))
	for id, w := range m.workers {
		addrs = append(addrs, workerAddr{id: id, addr: w.dataAddr})
	}
	m.mu.RUnlock()

	fromWorkers := make([]rpc.TransferSource, len(addrs))
	var wg sync.WaitGroup
	for i, wa := range addrs {
		wg.Add(1)
		go func(i int, wa workerAddr) {
			defer wg.Done()
			src := rpc.TransferSource{Source: "worker:" + string(wa.id)}
			page, counts, err := rpc.FetchTransfers(wa.addr, since, op, limit)
			if err != nil {
				m.cfg.Logger.Warn("transfer fan-out failed",
					"worker", wa.id, "err", err)
				src.Err = err.Error()
			} else {
				src.Page = page
				src.Counts = counts
			}
			fromWorkers[i] = src
		}(i, wa)
	}
	wg.Wait()

	sort.Slice(fromWorkers, func(a, b int) bool {
		return fromWorkers[a].Source < fromWorkers[b].Source
	})
	return append([]rpc.TransferSource{masterSrc}, fromWorkers...)
}
