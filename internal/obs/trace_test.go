package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestStartSpanHierarchy proves the context plumbing: a root span mints a
// trace, children started under its context inherit the trace and name the
// parent, and published frames carry the full lineage.
func TestStartSpanHierarchy(t *testing.T) {
	o := New(WithTracing())
	defer o.Close()
	sub := o.Subscribe(16)

	root, ctx := o.StartSpan(context.Background(), "request")
	if root == nil {
		t.Fatal("tracing observer returned a nil span")
	}
	child, cctx := o.StartSpan(ctx, "job")
	grand, _ := o.StartSpan(cctx, "arm")

	rc, cc, gc := root.Context(), child.Context(), grand.Context()
	if rc.TraceID == "" || len(rc.TraceID) != 16 {
		t.Fatalf("root trace ID = %q, want 16 hex chars", rc.TraceID)
	}
	if cc.TraceID != rc.TraceID || gc.TraceID != rc.TraceID {
		t.Fatalf("trace IDs diverge: root %s, child %s, grandchild %s", rc.TraceID, cc.TraceID, gc.TraceID)
	}
	ids := map[string]bool{rc.SpanID: true, cc.SpanID: true, gc.SpanID: true}
	if len(ids) != 3 {
		t.Fatalf("span IDs collide: %s %s %s", rc.SpanID, cc.SpanID, gc.SpanID)
	}

	grand.End(nil)
	child.End(errors.New("boom"))
	root.End(nil)

	byID := map[string]*SpanRecord{}
	for i := 0; i < 3; i++ {
		select {
		case line := <-sub.C():
			rec, err := DecodeRecord(line)
			if err != nil {
				t.Fatal(err)
			}
			s, ok := rec.(*SpanRecord)
			if !ok {
				t.Fatalf("frame %d is %T, want *SpanRecord", i, rec)
			}
			byID[s.SpanID] = s
		case <-time.After(time.Second):
			t.Fatal("span frame never arrived")
		}
	}
	if s := byID[rc.SpanID]; s == nil || s.ParentID != "" || s.Name != "request" {
		t.Fatalf("root frame = %+v", byID[rc.SpanID])
	}
	if s := byID[cc.SpanID]; s == nil || s.ParentID != rc.SpanID || s.Error != "boom" {
		t.Fatalf("child frame = %+v", byID[cc.SpanID])
	}
	if s := byID[gc.SpanID]; s == nil || s.ParentID != cc.SpanID {
		t.Fatalf("grandchild frame = %+v", byID[gc.SpanID])
	}
	if o.Counter(MSpansPublished).Value() != 3 {
		t.Fatalf("trace.spans = %d, want 3", o.Counter(MSpansPublished).Value())
	}
}

// TestSpanPhasesAndLinks exercises the attribution setters and the phase
// offset arithmetic a waterfall renderer depends on.
func TestSpanPhasesAndLinks(t *testing.T) {
	o := New(WithTracing())
	defer o.Close()
	sub := o.Subscribe(4)

	span, _ := o.StartSpan(context.Background(), "arm")
	span.SetTenant("alice")
	span.SetJob("j000001")
	span.SetKey("compress/test/gshare:1KB/none")
	span.SetSource(SourceComputed)
	span.SetStart(time.Now().Add(-5 * time.Millisecond)) // the wait began before the span opened
	span.AddPhase(PhaseQueue, 5*time.Millisecond)
	span.Link(SpanContext{TraceID: "feed0000feed0000", SpanID: "beef0000beef0000"}, "singleflight")
	span.Link(SpanContext{}, "ignored") // zero target: dropped
	span.End(nil)

	line := <-sub.C()
	rec, err := DecodeRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.(*SpanRecord)
	if s.Tenant != "alice" || s.Job != "j000001" || s.Source != SourceComputed {
		t.Fatalf("attribution lost: %+v", s)
	}
	if len(s.Phases) != 1 || s.Phases[0].Phase != PhaseQueue || s.Phases[0].DurNanos != int64(5*time.Millisecond) {
		t.Fatalf("phases = %+v", s.Phases)
	}
	if s.Phases[0].OffsetNanos < 0 || s.Phases[0].OffsetNanos > int64(time.Second) {
		t.Fatalf("phase offset %d ns not relative to span start", s.Phases[0].OffsetNanos)
	}
	if len(s.Links) != 1 || s.Links[0].TraceID != "feed0000feed0000" || s.Links[0].Kind != "singleflight" {
		t.Fatalf("links = %+v", s.Links)
	}
	if s.StartNanos <= 0 || s.DurNanos < 0 {
		t.Fatalf("timing fields: start=%d dur=%d", s.StartNanos, s.DurNanos)
	}
}

// TestTracingDisabledIsFreeAndInert: without WithTracing (and on the nil
// observer) StartSpan returns nil and the untouched context, every method on
// the nil span is a no-op, and no frame is published.
func TestTracingDisabledIsInert(t *testing.T) {
	for name, o := range map[string]*Observer{"nil": nil, "untraced": New()} {
		ctx := context.Background()
		span, sctx := o.StartSpan(ctx, "request")
		if span != nil {
			t.Fatalf("%s observer: StartSpan = %v, want nil", name, span)
		}
		if sctx != ctx {
			t.Fatalf("%s observer: context was replaced", name)
		}
		span.SetTenant("x")
		span.AddPhase(PhaseQueue, time.Millisecond)
		span.Link(SpanContext{TraceID: "aa"}, "k")
		span.End(nil)
		o.NoteSpanKey("k", SpanContext{TraceID: "aa", SpanID: "bb"})
		if _, ok := o.SpanForKey("k"); ok {
			t.Fatalf("%s observer: SpanForKey found a key while tracing is off", name)
		}
		if o != nil {
			o.Close()
		}
	}
	// And the disabled path allocates nothing.
	var o *Observer
	allocs := testing.AllocsPerRun(1000, func() {
		span, _ := o.StartSpan(context.Background(), "request")
		span.AddPhase(PhaseQueue, 0)
		span.End(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %v per op", allocs)
	}
}

// TestSpanFramesNeverJournaled is the byte-identity invariant at the obs
// layer: an observer with both a journal and tracing writes zero span
// records to the journal — they ride the bus only.
func TestSpanFramesNeverJournaled(t *testing.T) {
	var buf bytes.Buffer
	o := New(WithJournal(NewJournal(&buf)), WithTracing())
	span, _ := o.StartSpan(context.Background(), "request")
	span.End(nil)
	s, _ := o.StartArm(context.Background(), "run", "k")
	s.End(nil)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Contains(text, `"type":"span"`) {
		t.Fatalf("span frame leaked into the journal:\n%s", text)
	}
	if !strings.Contains(text, `"kind":"run"`) {
		t.Fatalf("arm record missing from journal:\n%s", text)
	}
}

// TestSpanKeyStoreEviction bounds the cross-link registry: past maxSpanKeys
// the oldest keys are dropped, newer ones survive, and re-noting an existing
// key updates in place without consuming a slot.
func TestSpanKeyStoreEviction(t *testing.T) {
	o := New(WithTracing())
	defer o.Close()
	sc := func(i int) SpanContext {
		return SpanContext{TraceID: fmt.Sprintf("%016d", i), SpanID: "s"}
	}
	for i := 0; i < maxSpanKeys+10; i++ {
		o.NoteSpanKey(fmt.Sprintf("k%d", i), sc(i))
	}
	if _, ok := o.SpanForKey("k0"); ok {
		t.Fatal("oldest key survived past the bound")
	}
	if got, ok := o.SpanForKey(fmt.Sprintf("k%d", maxSpanKeys+9)); !ok || got != sc(maxSpanKeys+9) {
		t.Fatalf("newest key lost: %v %v", got, ok)
	}
	// Re-note: update, not duplicate.
	o.NoteSpanKey(fmt.Sprintf("k%d", maxSpanKeys+9), sc(1))
	if got, _ := o.SpanForKey(fmt.Sprintf("k%d", maxSpanKeys+9)); got != sc(1) {
		t.Fatalf("re-note did not update: %v", got)
	}
	if n := len(o.spanKeys.order); n > maxSpanKeys {
		t.Fatalf("order slice grew to %d, bound is %d", n, maxSpanKeys)
	}
}

// TestNewIDUniqueness: identifiers must not repeat within a process run.
func TestNewIDUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		id := newID()
		if len(id) != 16 {
			t.Fatalf("newID() = %q, want 16 chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q after %d draws", id, i)
		}
		seen[id] = true
	}
}
