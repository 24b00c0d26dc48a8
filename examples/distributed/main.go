// Distributed: the §3 deployment shape — per-machine trace agents ship
// their filter-driver buffers over TCP to a dedicated collection server,
// which stores the streams compressed; the analysis then runs on the
// server's corpus. (The other examples use the in-process sink; this one
// exercises the real wire.)
package main

import (
	"fmt"
	"log"
	"net"

	"repro/internal/agent"
	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/fsgen"
	"repro/internal/ntos/machine"
	"repro/internal/ntos/volume"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tracefmt"
	"repro/internal/workload"
)

func main() {
	// The collection server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	store := collect.NewStore()
	srv := collect.Serve(ln, store, nil)
	fmt.Printf("collection server listening on %s\n", srv.Addr())

	// Two traced machines, each with its own agent and TCP sink. They
	// share one virtual clock, as in a single study.
	sched := sim.NewScheduler()
	root := sim.NewRNG(2024)
	var sinks []*agent.NetSink
	var drivers []*workload.Driver
	var machines []*machine.Machine
	for i, cat := range []machine.Category{machine.Personal, machine.Pool} {
		name := fmt.Sprintf("remote-%02d", i+1)
		sink, err := agent.NewNetSink(srv.Addr(), name)
		if err != nil {
			log.Fatal(err)
		}
		sinks = append(sinks, sink)
		var ag *agent.Agent
		m := machine.New(sched, root.Fork(uint64(i)+1), machine.Config{
			Name: name, Category: cat,
			TraceFlush: func(recs []tracefmt.Record) {
				if ag != nil {
					ag.Flush(recs)
				}
			},
		})
		machines = append(machines, m)
		m.AddVolume(`C:`, volume.IDE1998, volume.FlavorNTFS, false)
		lay := fsgen.PopulateLocal(m.SystemVolume().FS, root.Fork(uint64(i)+100), fsgen.Config{
			User: fmt.Sprintf("user%02d", i+1), Category: cat, Now: 0,
		})
		m.Start()
		ag = agent.New(m, sink)
		ag.Start()
		d := workload.Install(m, lay, root.Fork(uint64(i)+200))
		d.Start()
		drivers = append(drivers, d)
	}

	// Two simulated hours of traffic streaming over the wire.
	sched.RunUntil(sim.Time(2 * sim.Hour))
	for i, m := range machines {
		drivers[i].Stop()
		m.Stop()
	}
	sched.RunUntil(sched.Now().Add(sim.Minute))
	for _, s := range sinks {
		if err := s.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	for _, e := range srv.Errors() {
		log.Fatal("server error: ", e)
	}
	if err := store.Finalize(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("server stored %d records (%d KB compressed) from %d machines\n",
		store.TotalRecords(), store.CompressedBytes()/1024, len(store.Machines()))

	// Analyse the server-side corpus.
	ds := &analysis.DataSet{}
	for i, name := range store.Machines() {
		mt, err := analysis.NewMachineTraceFrom(name, machines[i].Category, func(fill func([]tracefmt.Record)) error {
			return store.ReadChunks(name, fill)
		})
		if err != nil {
			log.Fatal(err)
		}
		mt.ProcNames = machines[i].ProcNames
		ds.Machines = append(ds.Machines, mt)
	}
	r := report.ComputeWorkers(ds, 1)
	fmt.Println()
	fmt.Println(r.Section8())
}
