package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBusFanOutAndEnvelope(t *testing.T) {
	o := New()
	defer o.Close()
	a := o.Subscribe(16)
	b := o.Subscribe(16)

	o.Publish(&ProgressRecord{ArmsDone: 3})

	for _, sub := range []*BusSub{a, b} {
		select {
		case line := <-sub.C():
			var rec ProgressRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("unmarshal frame: %v", err)
			}
			if rec.Type != RecProgress || rec.V != SchemaV1 {
				t.Fatalf("envelope = %q v%d, want %q v%d", rec.Type, rec.V, RecProgress, SchemaV1)
			}
			if rec.ArmsDone != 3 {
				t.Fatalf("ArmsDone = %d, want 3", rec.ArmsDone)
			}
		case <-time.After(time.Second):
			t.Fatal("frame not delivered")
		}
	}
	if got := o.Counter(MBusPublished).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MBusPublished, got)
	}
	if got := o.Gauge(MBusSubscribers).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", MBusSubscribers, got)
	}
}

func TestBusStalledSubscriberDropsOldestWithoutBlocking(t *testing.T) {
	o := New()
	defer o.Close()
	// A subscriber that never reads, with a tiny queue.
	stalled := o.Subscribe(4)
	const n = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			o.Publish(&DropsRecord{Dropped: uint64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a stalled subscriber")
	}
	if got := stalled.Dropped(); got != n-4 {
		t.Fatalf("Dropped() = %d, want %d", got, n-4)
	}
	if got := o.Counter(MBusDropped).Value(); got != n-4 {
		t.Fatalf("%s = %d, want %d", MBusDropped, got, n-4)
	}
	// The queue holds the newest 4 frames: the oldest were dropped.
	var rec DropsRecord
	if err := json.Unmarshal(<-stalled.C(), &rec); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if rec.Dropped != n-4 {
		t.Fatalf("oldest surviving frame = %d, want %d", rec.Dropped, n-4)
	}
}

func TestBusRingReplaysToLateSubscriber(t *testing.T) {
	o := New()
	defer o.Close()
	for i := 0; i < busRing+50; i++ {
		o.PublishRaw([]byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	late := o.Subscribe(busRing)
	// The ring holds the newest busRing frames; a subscriber with that much
	// buffer gets all of them, oldest first.
	first := <-late.C()
	if string(first) != fmt.Sprintf(`{"i":%d}`, 50) {
		t.Fatalf("first replayed frame = %s, want {\"i\":50}", first)
	}
	for i := 1; i < busRing; i++ {
		<-late.C()
	}
	select {
	case extra := <-late.C():
		t.Fatalf("unexpected extra frame %s", extra)
	default:
	}

	// A small-buffer subscriber gets only the newest frames.
	small := o.Subscribe(2)
	if got := string(<-small.C()); got != fmt.Sprintf(`{"i":%d}`, busRing+48) {
		t.Fatalf("small replay head = %s", got)
	}
}

func TestBusSubscriberCloseDetaches(t *testing.T) {
	o := New()
	sub := o.Subscribe(1)
	if got := o.Gauge(MBusSubscribers).Value(); got != 1 {
		t.Fatalf("subscribers = %d, want 1", got)
	}
	sub.Close()
	sub.Close() // idempotent
	if got := o.Gauge(MBusSubscribers).Value(); got != 0 {
		t.Fatalf("subscribers after close = %d, want 0", got)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel still open after Close")
	}
	o.Publish(&DropsRecord{}) // must not panic or count a drop on sub
	if got := sub.Dropped(); got != 0 {
		t.Fatalf("closed sub dropped %d frames", got)
	}
	o.Close()
}

func TestBusObserverCloseClosesSubscribers(t *testing.T) {
	o := New()
	sub := o.Subscribe(1)
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case _, ok := <-sub.C():
		if ok {
			t.Fatal("expected closed channel, got frame")
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber channel not closed by observer Close")
	}
	// Late subscribe after close: immediately drained, publish is a no-op.
	late := o.Subscribe(1)
	o.Publish(&DropsRecord{})
	if _, ok := <-late.C(); ok {
		t.Fatal("subscription to a closed bus delivered a frame")
	}
}

func TestBusNilSafety(t *testing.T) {
	var o *Observer
	o.Publish(&DropsRecord{})
	o.PublishRaw([]byte("{}"))
	sub := o.Subscribe(8)
	if sub != nil {
		t.Fatal("nil observer returned non-nil subscription")
	}
	if sub.Dropped() != 0 {
		t.Fatal("nil sub Dropped != 0")
	}
	sub.Close()
	if sub.C() != nil {
		t.Fatal("nil sub C() != nil")
	}
	var b *Bus
	b.Publish(&DropsRecord{})
	b.publishRaw(nil)
	b.Close()
	if b.Subscribe(1) != nil {
		t.Fatal("nil bus returned non-nil subscription")
	}
}

func TestBusConcurrentPublishSubscribe(t *testing.T) {
	o := New()
	defer o.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churning subscribers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := o.Subscribe(8)
				select {
				case <-s.C():
				default:
				}
				s.Close()
			}
		}()
	}
	// Concurrent publishers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				o.Publish(&ProgressRecord{Events: uint64(j)})
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := o.Counter(MBusPublished).Value(); got != 2000 {
		t.Fatalf("published = %d, want 2000", got)
	}
}

func TestSpanPublishesStartAndEndRecords(t *testing.T) {
	o := New()
	defer o.Close()
	sub := o.Subscribe(8)
	sp, _ := o.StartArm(context.Background(), "run", "k1")
	sp.End(nil)

	want := []string{RecArmStart, RecArm}
	for _, typ := range want {
		select {
		case line := <-sub.C():
			var head struct {
				Type string `json:"type"`
				V    int    `json:"v"`
			}
			if err := json.Unmarshal(line, &head); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if head.Type != typ || head.V != SchemaV1 {
				t.Fatalf("frame envelope = %q v%d, want %q v%d", head.Type, head.V, typ, SchemaV1)
			}
		case <-time.After(time.Second):
			t.Fatalf("no %s frame", typ)
		}
	}
}
