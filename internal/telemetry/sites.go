package telemetry

// site is one static branch's running profile.
type site struct {
	key     uint64 // pc+1; 0 marks an empty slot
	execs   uint64
	taken   uint64
	misp    uint64
	lowconf uint64
}

// siteTable is the per-branch site tracker: open addressing with linear
// probing over a dense []site slice, kept at most half full, holding at most
// limit sites. A lookup is a multiply, a shift and usually one cache line,
// with no per-site allocation or pointer chase.
type siteTable struct {
	slots []site
	n     int  // sites held
	limit int  // Config.SiteCap
	shift uint // 64 - log2(len(slots))
}

// minSiteSlots is the initial slot count; the table doubles from there as
// sites arrive, so a short arm never pays for a full SiteCap table.
const minSiteSlots = 1 << 10

func newSiteTable(limit int) *siteTable {
	t := &siteTable{limit: limit}
	t.resize(minSiteSlots)
	return t
}

func (t *siteTable) resize(slots int) {
	old := t.slots
	t.slots = make([]site, slots)
	t.shift = 64
	for s := slots; s > 1; s >>= 1 {
		t.shift--
	}
	for i := range old {
		if old[i].key != 0 {
			*t.slot(old[i].key) = old[i]
		}
	}
}

// slot returns the slot holding key, or the empty slot where it belongs.
func (t *siteTable) slot(key uint64) *site {
	mask := len(t.slots) - 1
	for i := int(key * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// claim returns pc's site, adding it when fewer than limit sites are held;
// nil when pc is new and the table is at its limit.
func (t *siteTable) claim(pc uint64) *site {
	s := t.slot(pc + 1)
	if s.key != 0 {
		return s
	}
	if t.n >= t.limit {
		return nil
	}
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		s = t.slot(pc + 1)
	}
	s.key = pc + 1
	t.n++
	return s
}

// find returns pc's site, or nil when it is not held.
func (t *siteTable) find(pc uint64) *site {
	if s := t.slot(pc + 1); s.key != 0 {
		return s
	}
	return nil
}
