package dataset

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cloudscope/internal/dnswire"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
)

// Serialization: the paper released its datasets; cloudscope's measured
// dataset round-trips through a line-oriented text format so analyses
// can run without re-probing (experiments -save writes it; Read loads
// it back).
//
// Format, one record per line:
//
//	D <domain> <axfr:0|1> <subdomainsSeen> <cloudUsing>
//	S <fqdn> <domain>
//	R <fqdn> <rr zone-file style>
//
// Lines starting with '#' are comments.

// renderHeader renders the leading comment line from final stats.
func renderHeader(st Stats) string {
	return fmt.Sprintf("# cloudscope alexa-subdomains dataset: %d domains, %d cloud subdomains\n",
		st.DomainsScanned, st.CloudSubdomains)
}

// renderDomainLine renders one D record.
func renderDomainLine(s *DomainSummary) string {
	axfr := 0
	if s.AXFRWorked {
		axfr = 1
	}
	return fmt.Sprintf("D %s %d %d %d\n", s.Domain, axfr, s.SubdomainsSeen, s.CloudUsing)
}

// renderObservation renders one subdomain's S/R.../E block.
func renderObservation(o *Observation) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "S %s %s\n", o.FQDN, o.Domain)
	for _, rr := range o.RRs {
		var line string
		switch rr.Type {
		case dnswire.TypeA:
			line = fmt.Sprintf("R %s A %d %s", o.FQDN, rr.TTL, rr.IP)
		case dnswire.TypeCNAME:
			line = fmt.Sprintf("R %s CNAME %d %s", o.FQDN, rr.TTL, rr.Target)
		default:
			continue
		}
		// Records in a chain may be owned by CNAME targets, not the
		// subdomain itself; keep the owner.
		line = strings.Replace(line, "R "+o.FQDN, "R "+rr.Name, 1)
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	sb.WriteString("E\n")
	return sb.String()
}

// WriteTo serializes the dataset (deterministic ordering).
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(m int, err error) error {
		n += int64(m)
		return err
	}
	if err := count(bw.WriteString(renderHeader(d.Stats))); err != nil {
		return n, err
	}
	domains := make([]string, 0, len(d.Domains))
	for name := range d.Domains {
		domains = append(domains, name)
	}
	sort.Strings(domains)
	for _, name := range domains {
		if err := count(bw.WriteString(renderDomainLine(d.Domains[name]))); err != nil {
			return n, err
		}
	}
	fqdns := make([]string, 0, len(d.Subdomains))
	for f := range d.Subdomains {
		fqdns = append(fqdns, f)
	}
	sort.Strings(fqdns)
	for _, f := range fqdns {
		if err := count(bw.WriteString(renderObservation(d.Subdomains[f]))); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses a dataset written by WriteTo. ranges re-attaches the
// published list (it is not part of the file).
func Read(r io.Reader, ranges *ipranges.List) (*Dataset, error) {
	ds := newDataset(ranges)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var cur *Observation
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "D":
			if len(fields) != 5 {
				return nil, fmt.Errorf("dataset: line %d: bad D record", lineNo)
			}
			axfr := fields[2] == "1"
			seen, err1 := strconv.Atoi(fields[3])
			cu, err2 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("dataset: line %d: bad D counts", lineNo)
			}
			if ds.Domains[fields[1]] != nil {
				return nil, fmt.Errorf("dataset: line %d: duplicate domain %s", lineNo, fields[1])
			}
			ds.Domains[fields[1]] = &DomainSummary{Domain: fields[1], AXFRWorked: axfr, SubdomainsSeen: seen, CloudUsing: cu}
			ds.Stats.DomainsScanned++
			ds.Stats.SubdomainsSeen += seen
			if axfr {
				ds.Stats.AXFRSuccesses++
			}
		case "S":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: line %d: bad S record", lineNo)
			}
			cur = &Observation{FQDN: fields[1], Domain: fields[2]}
		case "R":
			if cur == nil {
				return nil, fmt.Errorf("dataset: line %d: R before S", lineNo)
			}
			if len(fields) != 5 {
				return nil, fmt.Errorf("dataset: line %d: bad R record", lineNo)
			}
			ttl, err := strconv.ParseUint(fields[3], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad TTL", lineNo)
			}
			rr := dnswire.RR{Name: fields[1], Class: dnswire.ClassIN, TTL: uint32(ttl)}
			switch fields[2] {
			case "A":
				ip, err := netaddr.ParseIP(fields[4])
				if err != nil {
					return nil, fmt.Errorf("dataset: line %d: %v", lineNo, err)
				}
				rr.Type, rr.IP = dnswire.TypeA, ip
				cur.IPs = append(cur.IPs, ip)
			case "CNAME":
				rr.Type, rr.Target = dnswire.TypeCNAME, fields[4]
			default:
				return nil, fmt.Errorf("dataset: line %d: bad type %q", lineNo, fields[2])
			}
			cur.RRs = append(cur.RRs, rr)
		case "E":
			if cur == nil {
				return nil, fmt.Errorf("dataset: line %d: E before S", lineNo)
			}
			if ds.Subdomains[cur.FQDN] != nil {
				return nil, fmt.Errorf("dataset: line %d: duplicate subdomain %s", lineNo, cur.FQDN)
			}
			ds.Subdomains[cur.FQDN] = cur
			ds.ByDomain[cur.Domain] = append(ds.ByDomain[cur.Domain], cur)
			ds.Stats.CloudSubdomains++
			cur = nil
		default:
			return nil, fmt.Errorf("dataset: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("dataset: truncated: unterminated subdomain %s", cur.FQDN)
	}
	return ds, nil
}
