package workload

import (
	"fmt"
	"slices"
)

// liProg is a SPEC "li" (xlisp) analogue: a small Lisp interpreter with a
// reader, an environment-based evaluator and a mark-sweep garbage collector
// over a cons-cell arena. It is not one of the paper's six programs — the
// paper evaluated six of the eight SPECINT95 members — but li and vortex are
// provided for studies beyond the paper's tables; they register as ordinary
// workloads and work with every tool.
//
// The branch mix is classic interpreter plus allocator: eval dispatch
// guards, environment-search loops, and the GC's mark recursion and sweep
// scan (long runs of biased branches whose bias shifts with heap occupancy).
type liProg struct{}

func init() { Register(liProg{}) }

// Name implements Program.
func (liProg) Name() string { return "li" }

// Description implements Program.
func (liProg) Description() string {
	return "small Lisp interpreter with mark-sweep GC running generated list/recursion kernels (SPEC li analogue)"
}

type liInput struct {
	fibN   int
	listN  int
	rounds int
	heap   int
}

var liInputs = map[string]liInput{
	InputTest:  {fibN: 13, listN: 60, rounds: 2, heap: 1 << 12},
	InputTrain: {fibN: 17, listN: 220, rounds: 5, heap: 1 << 14},
	InputRef:   {fibN: 19, listN: 500, rounds: 10, heap: 1 << 15},
}

// Lisp values are indices into the cell arena; tags live beside the cells.
const (
	liNil = iota
	liNum
	liSym
	liCons
	liBuiltin
	liLambda
)

type liCell struct {
	tag      uint8
	mark     bool
	num      int64
	sym      string
	car, cdr int // cell indices
}

type liSites struct {
	// reader
	rdMore, rdSpace, rdLP, rdRP, rdDigit, rdSymLoop *Site
	// eval dispatch guards (a dense switch does the real dispatch)
	evSelfEval, evIsSym, evIsForm, evTrace    *Site
	formIf, formDefine, formLambda, formQuote *Site
	// environment search
	envLoop, envHit, envGlobal *Site
	// application
	apBuiltin, apArgLoop, apArity *Site
	// arithmetic / list builtins
	bnNumCheck, bnNilCheck, bnCmp *Site
	// GC
	gcTrigger, gcMarkLoop, gcMarked, gcIsCons, gcSweepLoop, gcFree *Site
}

func newLiSites(c *Ctx) *liSites {
	s := &liSites{}
	s.rdMore = c.Site(4)
	s.rdSpace = c.Site(2)
	s.rdLP = c.Site(3)
	s.rdRP = c.Site(2)
	s.rdDigit = c.Site(3)
	s.rdSymLoop = c.Site(3)
	c.Gap(24)
	s.evSelfEval = c.Site(3)
	s.evIsSym = c.Site(3)
	s.evIsForm = c.Site(4)
	s.evTrace = c.Site(2)
	s.formIf = c.Site(3)
	s.formDefine = c.Site(2)
	s.formLambda = c.Site(2)
	s.formQuote = c.Site(2)
	c.Gap(24)
	s.envLoop = c.Site(3)
	s.envHit = c.Site(3)
	s.envGlobal = c.Site(2)
	s.apBuiltin = c.Site(3)
	s.apArgLoop = c.Site(3)
	s.apArity = c.Site(2)
	s.bnNumCheck = c.Site(2)
	s.bnNilCheck = c.Site(2)
	s.bnCmp = c.Site(3)
	c.Gap(24)
	s.gcTrigger = c.Site(4)
	s.gcMarkLoop = c.Site(3)
	s.gcMarked = c.Site(2)
	s.gcIsCons = c.Site(2)
	s.gcSweepLoop = c.Site(2)
	s.gcFree = c.Site(2)
	return s
}

// liVM is the interpreter.
type liVM struct {
	c *Ctx
	s *liSites

	cells    []liCell
	freeList []int
	// globals maps a global's name to its slot in globalVals, which holds
	// each global's cell in definition order: the GC seeds its mark stack
	// from the slice, so marking does not follow map order.
	globals    map[string]int
	globalVals []int
	roots      []int // GC roots (globals added separately)
	allocs     int
	gcRuns     int
	// gcEnabled is false while the reader builds partially-linked lists;
	// the heap is sized to hold the whole program without collecting.
	gcEnabled bool
}

func newLiVM(c *Ctx, heap int) *liVM {
	vm := &liVM{c: c, s: newLiSites(c), cells: make([]liCell, heap), globals: map[string]int{}}
	// cell 0 is nil forever
	for i := heap - 1; i >= 1; i-- {
		vm.freeList = append(vm.freeList, i)
	}
	return vm
}

func (vm *liVM) alloc(tag uint8) int {
	if vm.s.gcTrigger.Taken(len(vm.freeList) == 0) {
		if vm.gcEnabled {
			vm.gc()
		}
		if len(vm.freeList) == 0 {
			panic("li: heap exhausted")
		}
	}
	idx := vm.freeList[len(vm.freeList)-1]
	vm.freeList = vm.freeList[:len(vm.freeList)-1]
	vm.cells[idx] = liCell{tag: tag}
	vm.allocs++
	return idx
}

func (vm *liVM) num(v int64) int {
	idx := vm.alloc(liNum)
	vm.cells[idx].num = v
	return idx
}

func (vm *liVM) cons(car, cdr int) int {
	// protect operands across a potential GC at alloc
	vm.roots = append(vm.roots, car, cdr)
	idx := vm.alloc(liCons)
	vm.roots = vm.roots[:len(vm.roots)-2]
	vm.cells[idx].car = car
	vm.cells[idx].cdr = cdr
	return idx
}

// global returns the named global's cell.
func (vm *liVM) global(name string) (idx int, ok bool) {
	slot, ok := vm.globals[name]
	if !ok {
		return 0, false
	}
	return vm.globalVals[slot], true
}

// setGlobal binds name to cell idx, in a new slot on first definition.
func (vm *liVM) setGlobal(name string, idx int) {
	slot, ok := vm.globals[name]
	if !ok {
		slot = len(vm.globalVals)
		vm.globals[name] = slot
		vm.globalVals = append(vm.globalVals, 0)
	}
	vm.globalVals[slot] = idx
}

// gc is a mark-sweep collection over globals + the explicit root stack.
func (vm *liVM) gc() {
	vm.gcRuns++
	stack := append(slices.Clone(vm.globalVals), vm.roots...)
	for vm.s.gcMarkLoop.Taken(len(stack) > 0) {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if vm.s.gcMarked.Taken(idx == 0 || vm.cells[idx].mark) {
			continue
		}
		vm.cells[idx].mark = true
		if vm.s.gcIsCons.Taken(vm.cells[idx].tag == liCons || vm.cells[idx].tag == liLambda) {
			stack = append(stack, vm.cells[idx].car, vm.cells[idx].cdr)
		}
		vm.c.Ops(2)
	}
	vm.freeList = vm.freeList[:0]
	for i := len(vm.cells) - 1; vm.s.gcSweepLoop.Taken(i >= 1); i-- {
		if vm.s.gcFree.Taken(!vm.cells[i].mark) {
			vm.freeList = append(vm.freeList, i)
		}
		vm.cells[i].mark = false
	}
}

// ---- reader ----

func (vm *liVM) read(src []byte) ([]int, error) {
	s := vm.s
	var exprs []int
	pos := 0
	var readExpr func() (int, error)
	readExpr = func() (int, error) {
		for s.rdSpace.Taken(pos < len(src) && (src[pos] == ' ' || src[pos] == '\n' || src[pos] == '\t' || src[pos] == '\r')) {
			pos++
		}
		if pos >= len(src) {
			return 0, fmt.Errorf("li: unexpected end of input")
		}
		ch := src[pos]
		if s.rdLP.Taken(ch == '(') {
			pos++
			head, tail := 0, 0
			for {
				for s.rdSpace.Taken(pos < len(src) && (src[pos] == ' ' || src[pos] == '\n' || src[pos] == '\t' || src[pos] == '\r')) {
					pos++
				}
				if pos >= len(src) {
					return 0, fmt.Errorf("li: unclosed list")
				}
				if s.rdRP.Taken(src[pos] == ')') {
					pos++
					return head, nil
				}
				e, err := readExpr()
				if err != nil {
					return 0, err
				}
				cell := vm.cons(e, 0)
				if head == 0 {
					head, tail = cell, cell
				} else {
					vm.cells[tail].cdr = cell
					tail = cell
				}
			}
		}
		if s.rdDigit.Taken(ch >= '0' && ch <= '9' || ch == '-' && pos+1 < len(src) && src[pos+1] >= '0' && src[pos+1] <= '9') {
			neg := false
			if ch == '-' {
				neg = true
				pos++
			}
			var v int64
			for pos < len(src) && src[pos] >= '0' && src[pos] <= '9' {
				v = v*10 + int64(src[pos]-'0')
				pos++
			}
			if neg {
				v = -v
			}
			return vm.num(v), nil
		}
		start := pos
		for s.rdSymLoop.Taken(pos < len(src) && src[pos] != ' ' && src[pos] != '\n' && src[pos] != '\t' && src[pos] != '\r' && src[pos] != '(' && src[pos] != ')') {
			pos++
		}
		if pos == start {
			return 0, fmt.Errorf("li: stray %q", src[pos])
		}
		idx := vm.alloc(liSym)
		vm.cells[idx].sym = string(src[start:pos])
		return idx, nil
	}

	for {
		for s.rdSpace.Taken(pos < len(src) && (src[pos] == ' ' || src[pos] == '\n' || src[pos] == '\t' || src[pos] == '\r')) {
			pos++
		}
		if !s.rdMore.Taken(pos < len(src)) {
			return exprs, nil
		}
		e, err := readExpr()
		if err != nil {
			return nil, err
		}
		vm.roots = append(vm.roots, e) // top-level forms stay rooted
		exprs = append(exprs, e)
	}
}
