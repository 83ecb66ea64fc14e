package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// The shared ds/world variables come from dataset_test.go.

func TestSerializeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), world.Ranges)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.DomainsScanned != ds.Stats.DomainsScanned {
		t.Fatalf("domains %d != %d", got.Stats.DomainsScanned, ds.Stats.DomainsScanned)
	}
	if got.Stats.CloudSubdomains != ds.Stats.CloudSubdomains {
		t.Fatalf("subdomains %d != %d", got.Stats.CloudSubdomains, ds.Stats.CloudSubdomains)
	}
	if got.Stats.AXFRSuccesses != ds.Stats.AXFRSuccesses {
		t.Fatalf("axfr %d != %d", got.Stats.AXFRSuccesses, ds.Stats.AXFRSuccesses)
	}
	for fqdn, o := range ds.Subdomains {
		g := got.Subdomains[fqdn]
		if g == nil {
			t.Fatalf("lost %s", fqdn)
		}
		if g.Domain != o.Domain || len(g.IPs) != len(o.IPs) {
			t.Fatalf("%s: %d IPs vs %d", fqdn, len(g.IPs), len(o.IPs))
		}
		// Provider classification survives.
		e1, a1, o1 := o.ProviderOf(ds.Ranges)
		e2, a2, o2 := g.ProviderOf(got.Ranges)
		if e1 != e2 || a1 != a2 || o1 != o2 {
			t.Fatalf("%s: provider classification changed", fqdn)
		}
	}
}

func TestSerializeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := ds.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"bad D":        "D only three\n",
		"R before S":   "R x.com A 60 1.2.3.4\n",
		"bad type":     "S x.com com\nR x.com MX 60 foo\nE\n",
		"bad ip":       "S x.com com\nR x.com A 60 999.9.9.9\nE\n",
		"unterminated": "S x.com com\nR x.com A 60 1.2.3.4\n",
		"unknown tag":  "Z whatever\n",
		"E before S":   "E\n",
		"duplicate D":  "D x.com 0 1 0\nD x.com 0 1 0\n",
		"duplicate S":  "S a.x.com x.com\nE\nS a.x.com x.com\nE\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in), world.Ranges); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
