package telemetry

import "branchsim/internal/pctab"

// site is one static branch's running profile.
type site struct {
	execs   uint64
	taken   uint64
	misp    uint64
	lowconf uint64
}

// siteTable is the per-branch site tracker: a pctab.Table of sites holding
// at most limit of them, so a lookup is a multiply, a shift and usually one
// cache line.
type siteTable struct {
	pctab.Table[site]
	limit int // Config.SiteCap
}

// minSiteSlots is the initial slot count; the table doubles from there as
// sites arrive, so a short arm never pays for a full SiteCap table.
const minSiteSlots = 1 << 10

func newSiteTable(limit int) *siteTable {
	t := &siteTable{limit: limit}
	t.Reserve(minSiteSlots / 2)
	return t
}

// claim returns pc's site, adding it when fewer than limit sites are held;
// nil when pc is new and the table is at its limit.
func (t *siteTable) claim(pc uint64) *site {
	if s := t.Get(pc); s != nil {
		return s
	}
	if t.Len() >= t.limit {
		return nil
	}
	s, _ := t.Put(pc)
	return s
}
