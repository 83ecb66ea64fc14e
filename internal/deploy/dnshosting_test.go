package deploy

import (
	"testing"

	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
)

// TestNameServerAddressesServeTheirZones builds the shared hosting pool
// of a world past 1,072,800 domains, where the external hosters' NS
// carve would run into the shared vanity zones' /23 (hoster 1344's ns2
// and ns3 onto the opaque server's 204.14.80.2/.3, hoster 1348's ns2
// onto the CDN server's 204.14.81.2). Every name server must answer
// authoritatively for its own zone at every address it was given: the
// fabric rebinds a reused address silently, so a collision shows only
// as one of the two zones going dark there.
func TestNameServerAddressesServeTheirZones(t *testing.T) {
	w := newWorld(Config{Seed: 1, NumDomains: 1_100_000}, true)
	src := netaddr.MustParseIP("198.51.100.7")
	serves := func(ip netaddr.IP, origin string) bool {
		q, err := dnswire.NewQuery(1, origin, dnswire.TypeSOA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		resp, _, err := w.Fabric.Query(src, ip, q)
		if err != nil {
			return false
		}
		m, err := dnswire.Unpack(resp)
		return err == nil && m.Header.Authoritative && len(m.Answers) == 1
	}

	if n := len(w.dns.externals); n <= 1348 {
		t.Fatalf("%d external hosters; the test needs more than 1348 to reach the shared /23", n)
	}
	seen := map[netaddr.IP]string{}
	for _, p := range w.dns.externals {
		for _, ip := range p.NSIPs {
			if other, dup := seen[ip]; dup {
				t.Fatalf("%s and %s share name-server address %s", other, p.Name, ip)
			}
			seen[ip] = p.Name
			if !serves(ip, p.Name) {
				t.Errorf("%s: name server %s does not serve its own zone", p.Name, ip)
			}
		}
	}
	for _, shared := range []struct {
		origin string
		ip     string
	}{
		{"ghs-hosting.net", "204.14.80.2"},
		{"ghs-hosting.net", "204.14.80.3"},
		{"edgekey-cdn.net", "204.14.81.2"},
	} {
		if !serves(netaddr.MustParseIP(shared.ip), shared.origin) {
			t.Errorf("%s: shared server %s does not serve it", shared.origin, shared.ip)
		}
	}
}

// TestExternalNSAddressesUnmoved pins the carve below the shared /23:
// the goldens fix every address a smaller world hands out.
func TestExternalNSAddressesUnmoved(t *testing.T) {
	for _, c := range []struct {
		i, j int
		want string
	}{
		{0, 0, "204.13.0.1"},
		{3, 7, "204.13.0.200"},
		{1343, 7, "204.14.79.200"},
		{1344, 0, "204.14.82.1"},
		{1348, 1, "204.14.83.2"},
	} {
		if got := externalNSIP(c.i, c.j); got != netaddr.MustParseIP(c.want) {
			t.Errorf("externalNSIP(%d, %d) = %s, want %s", c.i, c.j, got, c.want)
		}
	}
}
