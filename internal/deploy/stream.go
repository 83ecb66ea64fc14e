package deploy

import (
	"fmt"
	"io"

	"cloudscope/internal/alexa"
	"cloudscope/internal/cloud"
	"cloudscope/internal/xrand"
)

// Chunk is one rank-contiguous window of a streamed world: Domains[0]
// has rank Start+1. Each domain in it is fully deployed — zone, cloud
// artifacts, DNS delegation — until the chunk is Released.
type Chunk struct {
	Start   int // 0-based global index (rank-1) of Domains[0]
	Domains []*Domain
}

// WorldStream generates a world chunk by chunk so an Alexa-1M-scale
// study runs in memory bounded by the chunk size, not the list size.
// The stream draws from exactly the random streams Generate uses — the
// alexa name/geo streams, the shared "domains" AXFR stream, and the
// per-domain split streams — in the same order, so the sequence of
// domains (and every zone byte) is identical to the in-memory path at
// any chunk size and worker count. The per-stage sha256 goldens in
// stage_determinism_test.go hold the two paths to that contract.
//
// Call Next until it returns nil, and Release each chunk when its
// consumers are done: Release returns the chunk's provider-zone
// records, DNS delegations, and fabric registrations, so live state
// stays proportional to one chunk.
type WorldStream struct {
	w         *World
	src       *alexa.Stream
	rng       *xrand.Rand // shared "domains" stream: per-domain AXFR flags
	gp        genParams
	chunkSize int
	start     int // 0-based global index of the next chunk's first domain
	cloud     int // cloud-using domains committed so far
}

// GenerateStream starts a streaming generation of cfg's world.
// chunkSize <= 0 generates everything as one chunk.
func GenerateStream(cfg Config, chunkSize int) *WorldStream {
	w := newWorld(cfg, true)
	return &WorldStream{
		w:         w,
		src:       alexa.NewStream(cfg.NumDomains, cfg.Seed, alexa.DefaultAnchors),
		rng:       w.rng.Split("domains"),
		gp:        newGenParams(cfg),
		chunkSize: chunkSize,
	}
}

// World exposes the shared substrate (fabric, registry, clouds) that
// measurement consumers resolve against. Its Domains/CloudDomains
// slices stay empty: per-domain truth lives only in live chunks.
func (ws *WorldStream) World() *World { return ws.w }

// NumCloudDomains counts the cloud-using domains committed so far; the
// final total once Next has returned nil.
func (ws *WorldStream) NumCloudDomains() int { return ws.cloud }

// Next deploys and returns the next chunk, or nil when the ranked list
// is exhausted. It errors like Generate.
func (ws *WorldStream) Next() (*Chunk, error) {
	ads := ws.src.Next(ws.chunkSize)
	if len(ads) == 0 {
		return nil, nil
	}
	domains, err := ws.w.deployChunk(ws.rng, ads, ws.gp)
	if err != nil {
		return nil, err
	}
	c := &Chunk{Start: ws.start, Domains: domains}
	ws.start += len(c.Domains)
	for _, d := range c.Domains {
		if d.CloudUsing() {
			ws.cloud++
		}
	}
	return c, nil
}

// Release tears down every domain in the chunk: zone delegations,
// provider-zone records, per-domain name-server registrations, and the
// FQDN index. Allocation cursors (addresses, feature IDs, the vanity
// counter) are never rewound, so later chunks are unaffected.
func (ws *WorldStream) Release(c *Chunk) {
	for _, d := range c.Domains {
		ws.w.releaseDomain(d)
	}
	c.Domains = nil
}

// DumpTrailer writes the summary line DumpTruth ends with, so chunked
// DumpTo output concatenates to exactly the whole-world dump.
func (ws *WorldStream) DumpTrailer(dst io.Writer) {
	fmt.Fprintf(dst, "cloudDomains=%d subs=%d\n", ws.cloud, ws.w.NumSubdomains())
}

// releaseDomain undoes a domain's footprint in shared state: the
// delegation, its zone on the hosting provider's server, self-hosted
// name-server fabric registrations, and every subdomain's provider-zone
// records.
func (w *World) releaseDomain(d *Domain) {
	if p := d.DNS; p != nil {
		p.Server.RemoveZone(d.Name)
		if p.Kind == "ec2-vm" {
			// Self-hosted name servers exist only for this domain; drop
			// their fabric endpoints too. (The VMs' address space is not
			// reused — allocation cursors only move forward.)
			for _, ip := range p.NSIPs {
				w.Fabric.Unregister(ip)
			}
		}
	}
	w.Registry.Undelegate(d.Name)
	for _, s := range d.Subdomains {
		w.releaseSubdomain(s)
	}
	d.Subdomains = nil
}

// releaseSubdomain removes the subdomain's records from the shared
// zones its deployment wrote into (the per-domain zone dies with the
// domain and needs no cleanup).
func (w *World) releaseSubdomain(s *Subdomain) {
	delete(w.bySub, s.FQDN)
	if s.vanity != "" {
		if s.OtherCDN {
			w.otherCDNZone.Remove(s.vanity)
		} else {
			w.opaqueZone.Remove(s.vanity)
		}
	}
	if s.ELB != nil {
		w.EC2.ProviderZone(cloud.ZoneAmazonAWS).Remove(s.ELB.Name)
	}
	if s.Beanstalk != nil {
		w.EC2.ProviderZone(cloud.ZoneAmazonAWS).Remove(s.Beanstalk.Name)
	}
	if s.Heroku != nil {
		w.EC2.ProviderZone(cloud.ZoneHerokuApp).Remove(s.Heroku.Name)
	}
	if s.CDN != nil {
		w.EC2.ProviderZone(cloud.ZoneCloudFront).Remove(s.CDN.Name)
	}
	if s.CS != nil {
		w.Azure.ProviderZone(cloud.ZoneCloudApp).Remove(s.CS.Name)
	}
	if s.TM != nil {
		w.Azure.ProviderZone(cloud.ZoneTrafficManager).Remove(s.TM.Name)
		for _, m := range s.TM.Members {
			w.Azure.ProviderZone(cloud.ZoneCloudApp).Remove(m.Name)
		}
	}
	if s.AzureCDN != nil {
		w.Azure.ProviderZone(cloud.ZoneMSECN).Remove(s.AzureCDN.Name)
	}
}
