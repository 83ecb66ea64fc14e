package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"cloudscope/internal/deploy"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/packet"
	"cloudscope/internal/pcapio"
)

// The layer probes run only in the traced run, after the measured
// phases, on the workload's own world and over a seeded sample. Each
// reports a mean cost per call.

// probeSource is the probes' client address (the first discovery
// vantage's).
var probeSource = netaddr.MustParseIP("193.5.0.7")

// dnsProbes times the discovery crawl's layers on a sample of w: the
// authoritative server path (fabric datagram → zone lookup → answer)
// with the crawl's mix of existing and brute-force NXDOMAIN names, a
// cold resolver's LookupA, and the DNS codec.
func dnsProbes(r *run, tr *tracer, w *deploy.World, nDomains int) {
	var names, existing []string
	for i, d := range sampleDomains(w, nDomains, r.seed) {
		names = append(names, fmt.Sprintf("bench-%d.%s", i, d.Name))
		if len(d.Subdomains) > 0 {
			fqdn := d.Subdomains[i%len(d.Subdomains)].FQDN
			names = append(names, fqdn)
			existing = append(existing, fqdn)
		}
	}

	type target struct {
		dst     netaddr.IP
		payload []byte
	}
	var targets []target
	for i, name := range names {
		_, ips, ok := w.Registry.Authoritative(name)
		if !ok || len(ips) == 0 {
			continue
		}
		b, err := dnswire.NewQuery(uint16(i), name, dnswire.TypeA).Pack()
		if err != nil {
			r.check(false, "packing a probe query for %s: %v", name, err)
			continue
		}
		targets = append(targets, target{ips[0], b})
	}
	id := tr.begin("probe.dnssrv", 0)
	t0 := time.Now()
	for _, t := range targets {
		_, _, err := w.Fabric.Query(probeSource, t.dst, t.payload)
		r.check(err == nil, "fabric query to %v: %v", t.dst, err)
	}
	r.metrics["dnssrv.query_us"] = perCallUs(time.Since(t0), len(targets))
	tr.end(id)

	id = tr.begin("probe.resolver", 0)
	t0 = time.Now()
	for _, name := range existing {
		_, err := dnssrv.NewResolver(w.Fabric, w.Registry, probeSource).LookupA(name)
		r.check(err == nil, "LookupA %s: %v", name, err)
	}
	r.metrics["resolver.lookup_a_us"] = perCallUs(time.Since(t0), len(existing))
	tr.end(id)

	const codecReps = 20
	id = tr.begin("probe.dnswire", 0)
	t0 = time.Now()
	for rep := 0; rep < codecReps; rep++ {
		for i, name := range names {
			b, err := dnswire.NewQuery(uint16(i), name, dnswire.TypeA).Pack()
			if err == nil {
				_, err = dnswire.Unpack(b)
			}
			if err != nil {
				r.check(false, "codec round trip of %s: %v", name, err)
			}
		}
	}
	r.metrics["dnswire.codec_us"] = perCallUs(time.Since(t0), codecReps*len(names))
	tr.end(id)
}

// pcapProbes times the capture read path's layers over one pcap: bare
// block reads, and header decode of every frame.
func pcapProbes(r *run, tr *tracer, raw []byte) error {
	const reps = 5
	id := tr.begin("probe.pcapio", 0)
	t0 := time.Now()
	var frames [][]byte
	for rep := 0; rep < reps; rep++ {
		rd, err := pcapio.NewReader(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		for {
			b := pcapio.GetBlock()
			n, err := rd.ReadBlock(b, 0)
			if rep == 0 {
				for i := 0; i < n; i++ {
					frames = append(frames, append([]byte(nil), b.Data(i)...))
				}
			}
			b.Release()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
	}
	el := time.Since(t0)
	tr.end(id)
	r.metrics["pcapio.read_block_mb_per_s"] = float64(reps*len(raw)) / (1 << 20) / seconds(el)

	id = tr.begin("probe.packet", 0)
	var p packet.Packet
	decodeErrs := 0
	t0 = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, f := range frames {
			if packet.DecodeHeaders(&p, f) != nil {
				decodeErrs++
			}
		}
	}
	el = time.Since(t0)
	tr.end(id)
	r.metrics["packet.decode_headers_ns"] = float64(el.Nanoseconds()) / float64(reps*len(frames))
	r.check(decodeErrs == 0, "%d frames of a clean capture failed to decode", decodeErrs)
	return nil
}

func perCallUs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}
