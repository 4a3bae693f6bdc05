package workload

import (
	"context"
	"fmt"

	"branchsim/internal/trace"
)

// Builtin ids (stored in a liBuiltin cell's num field).
const (
	biAdd = iota
	biSub
	biMul
	biQuotient
	biLess
	biEq
	biCons
	biCar
	biCdr
	biNullP
	biNot
)

// push/popN manage the GC root stack; every live intermediate value is
// rooted across any call that can allocate.
func (vm *liVM) push(idx int) { vm.roots = append(vm.roots, idx) }

func (vm *liVM) popN(n int) { vm.roots = vm.roots[:len(vm.roots)-n] }

// liError aborts evaluation; Run recovers it at the top level.
type liError struct{ msg string }

func (vm *liVM) fail(format string, args ...any) {
	panic(liError{fmt.Sprintf(format, args...)})
}

// envLookup searches the lexical environment (an assoc list of
// (symbol-cell . value) pairs) and then the globals.
func (vm *liVM) envLookup(name string, env int) int {
	s := vm.s
	for e := env; s.envLoop.Taken(e != 0); e = vm.cells[e].cdr {
		pair := vm.cells[e].car
		if s.envHit.Taken(vm.cells[vm.cells[pair].car].sym == name) {
			return vm.cells[pair].cdr
		}
	}
	if idx, ok := vm.global(name); s.envGlobal.Taken(ok) {
		return idx
	}
	vm.fail("li: unbound symbol %q", name)
	return 0
}

// eval evaluates expr in env. Callers must keep expr and env rooted; eval
// roots everything it allocates while it can still trigger a collection.
func (vm *liVM) eval(expr, env int) int {
	s := vm.s
	cell := vm.cells[expr]
	vm.c.Ops(3)

	if s.evSelfEval.Taken(cell.tag == liNum || cell.tag == liNil || cell.tag == liBuiltin || cell.tag == liLambda) {
		return expr
	}
	if s.evIsSym.Taken(cell.tag == liSym) {
		return vm.envLookup(cell.sym, env)
	}

	// a list: special form or application
	head := cell.car
	args := cell.cdr
	isForm := vm.cells[head].tag == liSym
	name := ""
	if isForm {
		name = vm.cells[head].sym
	}
	s.evTrace.Taken(vm.gcRuns < 0) // trace hook, compiled out
	if s.evIsForm.Taken(isForm && (name == "quote" || name == "if" || name == "define" || name == "lambda")) {
		switch name {
		case "quote":
			if s.formQuote.Taken(args == 0) {
				vm.fail("li: quote needs an argument")
			}
			return vm.cells[args].car
		case "if":
			cond := vm.eval(vm.cells[args].car, env)
			rest := vm.cells[args].cdr
			if s.formIf.Taken(cond != 0 && !(vm.cells[cond].tag == liNum && vm.cells[cond].num == 0)) {
				return vm.eval(vm.cells[rest].car, env)
			}
			alt := vm.cells[rest].cdr
			if alt == 0 {
				return 0
			}
			return vm.eval(vm.cells[alt].car, env)
		case "define":
			nameCell := vm.cells[args].car
			_, redef := vm.globals[vm.cells[nameCell].sym]
			s.formDefine.Taken(redef) // redefinition bookkeeping
			val := vm.eval(vm.cells[vm.cells[args].cdr].car, env)
			vm.setGlobal(vm.cells[nameCell].sym, val)
			return val
		default: // lambda
			params := vm.cells[args].car
			if s.formLambda.Taken(args == 0) {
				vm.fail("li: lambda needs a parameter list")
			}
			body := vm.cells[vm.cells[args].cdr].car
			vm.push(env)
			pb := vm.cons(params, body)
			vm.push(pb)
			l := vm.alloc(liLambda)
			vm.popN(2)
			vm.cells[l].car = pb
			vm.cells[l].cdr = env
			return l
		}
	}

	// application: evaluate operator, then operands left to right
	fn := vm.eval(head, env)
	vm.push(fn)
	argHead, argTail := 0, 0
	n := 0
	for a := args; s.apArgLoop.Taken(a != 0); a = vm.cells[a].cdr {
		if argHead != 0 {
			vm.push(argHead)
		}
		v := vm.eval(vm.cells[a].car, env)
		if argHead != 0 {
			vm.popN(1)
		}
		vm.push(argHead) // root across cons
		vm.push(v)
		cellIdx := vm.cons(v, 0)
		vm.popN(2)
		if argHead == 0 {
			argHead, argTail = cellIdx, cellIdx
		} else {
			vm.cells[argTail].cdr = cellIdx
			argTail = cellIdx
		}
		n++
	}
	vm.push(argHead)
	result := vm.apply(fn, argHead, n)
	vm.popN(2) // argHead, fn
	return result
}

// apply invokes a builtin or a lambda on an argument list.
func (vm *liVM) apply(fn, argList, n int) int {
	s := vm.s
	fcell := vm.cells[fn]
	if s.apBuiltin.Taken(fcell.tag == liBuiltin) {
		return vm.applyBuiltin(int(fcell.num), argList, n)
	}
	if fcell.tag != liLambda {
		vm.fail("li: applying a non-function (tag %d)", fcell.tag)
	}
	params := vm.cells[fcell.car].car
	body := vm.cells[fcell.car].cdr
	env := fcell.cdr
	// bind params to args: extend the assoc-list environment
	p, a := params, argList
	newEnv := env
	for p != 0 {
		if s.apArity.Taken(a == 0) {
			vm.fail("li: too few arguments")
		}
		vm.push(newEnv)
		pair := vm.cons(vm.cells[p].car, vm.cells[a].car)
		vm.push(pair)
		newEnv = vm.cons(pair, newEnv)
		vm.popN(2)
		p = vm.cells[p].cdr
		a = vm.cells[a].cdr
	}
	if a != 0 {
		vm.fail("li: too many arguments")
	}
	vm.push(newEnv)
	res := vm.eval(body, newEnv)
	vm.popN(1)
	return res
}

func (vm *liVM) numArg(argList, k int) int64 {
	s := vm.s
	a := argList
	for i := 0; i < k; i++ {
		a = vm.cells[a].cdr
	}
	v := vm.cells[a].car
	if !s.bnNumCheck.Taken(vm.cells[v].tag == liNum) {
		vm.fail("li: number expected")
	}
	return vm.cells[v].num
}

func (vm *liVM) applyBuiltin(id, argList, n int) int {
	s := vm.s
	boolCell := func(b bool) int {
		if s.bnCmp.Taken(b) {
			return vm.num(1)
		}
		return vm.num(0)
	}
	switch id {
	case biAdd:
		return vm.num(vm.numArg(argList, 0) + vm.numArg(argList, 1))
	case biSub:
		return vm.num(vm.numArg(argList, 0) - vm.numArg(argList, 1))
	case biMul:
		return vm.num(vm.numArg(argList, 0) * vm.numArg(argList, 1))
	case biQuotient:
		d := vm.numArg(argList, 1)
		if d == 0 {
			vm.fail("li: division by zero")
		}
		return vm.num(vm.numArg(argList, 0) / d)
	case biLess:
		return boolCell(vm.numArg(argList, 0) < vm.numArg(argList, 1))
	case biEq:
		return boolCell(vm.numArg(argList, 0) == vm.numArg(argList, 1))
	case biCons:
		a := vm.cells[argList].car
		b := vm.cells[vm.cells[argList].cdr].car
		return vm.cons(a, b)
	case biCar:
		v := vm.cells[argList].car
		if s.bnNilCheck.Taken(v == 0) {
			vm.fail("li: car of nil")
		}
		return vm.cells[v].car
	case biCdr:
		v := vm.cells[argList].car
		if s.bnNilCheck.Taken(v == 0) {
			vm.fail("li: cdr of nil")
		}
		return vm.cells[v].cdr
	case biNullP:
		return boolCell(vm.cells[argList].car == 0)
	case biNot:
		v := vm.cells[argList].car
		return boolCell(v == 0 || vm.cells[v].tag == liNum && vm.cells[v].num == 0)
	default:
		vm.fail("li: unknown builtin %d", id)
		return 0
	}
}

// defineBuiltins allocates the builtins in a fixed order, so their cells,
// and with them the branch stream, are the same on every run.
func (vm *liVM) defineBuiltins() {
	for _, b := range []struct {
		name string
		id   int
	}{
		{"+", biAdd}, {"-", biSub}, {"*", biMul}, {"quotient", biQuotient},
		{"<", biLess}, {"=", biEq}, {"cons", biCons}, {"car", biCar},
		{"cdr", biCdr}, {"null?", biNullP}, {"not", biNot},
	} {
		idx := vm.alloc(liBuiltin)
		vm.cells[idx].num = int64(b.id)
		vm.setGlobal(b.name, idx)
	}
}

// liSource builds the benchmark program: recursive fib, list build /
// reverse / sum, and a map-square pipeline, run `rounds` times.
func liSource(in liInput) []byte {
	src := `
(define fib (lambda (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))))
(define build (lambda (n) (if (= n 0) (quote ()) (cons n (build (- n 1))))))
(define sum (lambda (l acc) (if (null? l) acc (sum (cdr l) (+ acc (car l))))))
(define rev (lambda (l acc) (if (null? l) acc (rev (cdr l) (cons (car l) acc)))))
(define mapsq (lambda (l) (if (null? l) (quote ()) (cons (* (car l) (car l)) (mapsq (cdr l))))))
`
	for r := 0; r < in.rounds; r++ {
		src += fmt.Sprintf("(define fibres (fib %d))\n", in.fibN)
		src += fmt.Sprintf("(define lst (build %d))\n", in.listN)
		src += "(define total (sum (mapsq (rev lst (quote ()))) 0))\n"
	}
	return []byte(src)
}

// hostFib is the verification oracle.
func hostFib(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	a, b := int64(0), int64(1)
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}

// Run implements Program.
func (liProg) Run(ctx context.Context, input string, rec trace.Recorder) (err error) {
	in, ok := liInputs[input]
	if !ok {
		return fmt.Errorf("li: unknown input %q", input)
	}
	c := NewCtx(rec).WithContext(ctx)
	c.SetBlockBias(3)
	vm := newLiVM(c, in.heap)
	vm.defineBuiltins()
	c.Ops(300)

	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(liError); ok {
				err = fmt.Errorf("%s", le.msg)
				return
			}
			panic(r)
		}
	}()

	exprs, err := vm.read(liSource(in))
	if err != nil {
		return err
	}
	vm.gcEnabled = true
	for _, e := range exprs {
		vm.eval(e, 0)
	}

	// Verify: the interpreter's fib and list pipeline against host math.
	fibres, _ := vm.global("fibres")
	if fibres == 0 || vm.cells[fibres].num != hostFib(in.fibN) {
		return fmt.Errorf("li: fib(%d) wrong: cell %d", in.fibN, fibres)
	}
	// sum of squares 1..n = n(n+1)(2n+1)/6
	nn := int64(in.listN)
	want := nn * (nn + 1) * (2*nn + 1) / 6
	total, _ := vm.global("total")
	if total == 0 || vm.cells[total].num != want {
		return fmt.Errorf("li: sum of squares wrong: got cell %d, want %d", total, want)
	}
	if vm.gcRuns == 0 && input != InputTest {
		return fmt.Errorf("li: the collector never ran; heap sizing defeats the benchmark")
	}
	return nil
}
