// Command worldgen generates a synthetic Internet and writes its
// shareable artifacts to disk: the published cloud IP ranges, the
// ranked domain list with ground truth, and a border packet capture —
// the reproduction's analogue of the paper's released datasets.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cloudscope"
	"cloudscope/internal/cliflags"
	"cloudscope/internal/deploy"
	"cloudscope/internal/parallel"
)

func main() {
	domains := flag.Int("domains", 10000, "ranked-list size")
	seed := flag.Int64("seed", 1, "world seed")
	flows := flag.Int("flows", 20000, "capture flows")
	outDir := flag.String("out", "world", "output directory")
	shared := cliflags.Register(flag.CommandLine)
	streaming := cliflags.RegisterStreaming(flag.CommandLine)
	flag.Parse()

	if err := streaming.Validate(); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if streaming.Stream {
		// The streaming path holds one chunk of world at a time, so a
		// 1M-domain list fits in flat memory; the capture and the zone
		// samples need the whole world live at once and are skipped.
		if err := shared.RejectStudyFlags("worldgen -stream"); err != nil {
			fatal(err)
		}
		if streaming.SpillDir != "" {
			fatal(fmt.Errorf("worldgen streams its CSVs directly and spills nothing; drop -spill-dir"))
		}
		if err := shared.Start(nil); err != nil {
			fatal(err)
		}
		if err := streamWorld(*outDir, *seed, *domains, shared.Workers, streaming.ChunkSize); err != nil {
			fatal(err)
		}
		if err := shared.FinishProfiles(); err != nil {
			fatal(err)
		}
		return
	}
	cfg := cloudscope.Config{Seed: *seed, Domains: *domains, CaptureFlows: *flows}
	if err := shared.Apply(&cfg); err != nil {
		fatal(err)
	}
	study := cloudscope.NewStudy(cfg)
	if err := shared.Start(study.Telemetry()); err != nil {
		fatal(err)
	}
	world := study.World()

	// Published IP ranges.
	f, err := os.Create(filepath.Join(*outDir, "ipranges.txt"))
	if err != nil {
		fatal(err)
	}
	if _, err := world.Ranges.WriteTo(f); err != nil {
		fatal(err)
	}
	f.Close()

	// Ranked list and subdomain inventory with ground truth.
	cw, err := createCSVs(*outDir)
	if err != nil {
		fatal(err)
	}
	for _, d := range world.Domains {
		cw.add(d)
	}
	if err := cw.close(); err != nil {
		fatal(err)
	}

	// Sample zone files for the ten highest-ranked cloud domains.
	zoneDir := filepath.Join(*outDir, "zones")
	if err := os.MkdirAll(zoneDir, 0o755); err != nil {
		fatal(err)
	}
	for i, d := range world.CloudDomains {
		if i >= 10 {
			break
		}
		zf, err := os.Create(filepath.Join(zoneDir, d.Name+".zone"))
		if err != nil {
			fatal(err)
		}
		if _, err := d.Zone.WriteTo(zf, 0); err != nil {
			fatal(err)
		}
		zf.Close()
	}

	// Border capture.
	f, err = os.Create(filepath.Join(*outDir, "border.pcap"))
	if err != nil {
		fatal(err)
	}
	truth, err := study.WriteCapture(f)
	if err != nil {
		fatal(err)
	}
	f.Close()

	fmt.Printf("wrote %s: %d domains (%d cloud-using), %d-flow capture (%d bytes of app traffic)\n",
		*outDir, len(world.Domains), len(world.CloudDomains), truth.TotalFlows, truth.TotalBytes)
	if err := shared.Finish(os.Stdout, study); err != nil {
		fatal(err)
	}
}

// streamWorld writes ipranges.txt, domains.csv, and subdomains.csv
// chunk-by-chunk: each chunk of domains is deployed, its CSV rows
// written, and its zones and subdomains released before the next chunk
// starts, so peak memory is one chunk — not the ranked list's size.
func streamWorld(outDir string, seed int64, domains, workers, chunkSize int) error {
	ws := deploy.GenerateStream(deploy.Config{Seed: seed, NumDomains: domains, Par: parallel.Options{Workers: workers}}, chunkSize)

	f, err := os.Create(filepath.Join(outDir, "ipranges.txt"))
	if err != nil {
		return err
	}
	if _, err := ws.World().Ranges.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	cw, err := createCSVs(outDir)
	if err != nil {
		return err
	}
	total := 0
	for {
		chunk, err := ws.Next()
		if err != nil {
			cw.close()
			return err
		}
		if chunk == nil {
			break
		}
		for _, d := range chunk.Domains {
			cw.add(d)
		}
		total += len(chunk.Domains)
		ws.Release(chunk)
	}
	if err := cw.close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d domains (%d cloud-using), streamed in chunks of %d (capture and zone samples need the whole world; rerun without -stream for those)\n",
		outDir, total, ws.NumCloudDomains(), chunkSize)
	return nil
}

// csvWriter writes domains.csv (every ranked domain) and
// subdomains.csv (each domain's cloud-using subdomains), one domain at
// a time in rank order. The in-memory and -stream paths both write
// through it, so their CSVs are the same bytes.
type csvWriter struct {
	df, sf        *os.File
	domains, subs *bufio.Writer
}

// createCSVs creates both CSVs under outDir and writes their headers.
func createCSVs(outDir string) (*csvWriter, error) {
	df, err := os.Create(filepath.Join(outDir, "domains.csv"))
	if err != nil {
		return nil, err
	}
	sf, err := os.Create(filepath.Join(outDir, "subdomains.csv"))
	if err != nil {
		df.Close()
		return nil, err
	}
	w := &csvWriter{df: df, sf: sf, domains: bufio.NewWriter(df), subs: bufio.NewWriter(sf)}
	fmt.Fprintln(w.domains, "rank,domain,cloud_using,home_region,customer_country,cloud_subdomains")
	fmt.Fprintln(w.subs, "fqdn,pattern,provider,regions")
	return w, nil
}

// add writes d's domains.csv row and its subdomains.csv rows.
func (w *csvWriter) add(d *deploy.Domain) {
	subs := d.CloudSubdomains()
	fmt.Fprintf(w.domains, "%d,%s,%t,%s,%s,%d\n",
		d.Rank, d.Name, d.CloudUsing(), d.HomeRegion, d.CustomerCountry, len(subs))
	for _, s := range subs {
		fmt.Fprintf(w.subs, "%s,%s,%s,%s\n", s.FQDN, s.Pattern, s.Provider, strings.Join(s.Regions, ";"))
	}
}

// close flushes and closes both files. A bufio.Writer keeps a failed
// write's error, so Flush reports any write error here.
func (w *csvWriter) close() error {
	return errors.Join(w.domains.Flush(), w.df.Close(), w.subs.Flush(), w.sf.Close())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "worldgen:", err)
	os.Exit(1)
}
