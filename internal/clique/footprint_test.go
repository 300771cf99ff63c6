package clique

import "testing"

// TestResetTrimsOversizedBuffers drives one traffic spike far above the
// high-water mark and checks the spiked link queue is released at
// delivery and the spiked mail buffer at the next Reset, while modest
// capacity stays warm.
func TestResetTrimsOversizedBuffers(t *testing.T) {
	EachForm(t, 3, func(t *testing.T, c *Network) {
		defer c.Close()
		big := make([]Word, linkRetainCap+1)
		c.SendVec(0, 1, big)
		c.Send(0, 2, 7) // modest traffic: capacity should survive Reset
		c.Flush()
		if got := cap(c.at(0, 1).q); got != 0 {
			t.Fatalf("Flush kept %d words of spiked queue capacity, want 0", got)
		}
		c.Reset()
		if got := cap(c.at(0, 2).q); got == 0 {
			t.Fatalf("Reset dropped the modest queue's capacity, want it kept warm")
		}
		eachEntry(c, func(dst int, e *mailEntry) {
			if got := cap(e.ws); got > linkRetainCap {
				t.Fatalf("Reset kept %d words of spiked delivery capacity at %d←%d", got, dst, e.src)
			}
		})
		// An aborted run (queued traffic never flushed) is trimmed by Reset.
		c.SendVec(0, 1, big)
		c.Reset()
		if got := cap(c.at(0, 1).q); got != 0 {
			t.Fatalf("Reset kept %d words of unflushed spiked queue capacity, want 0", got)
		}
	})
}

// eachEntry visits every mailbox entry of both of c's mails, stale or not.
func eachEntry(c *Network, f func(dst int, e *mailEntry)) {
	for _, mail := range c.mails {
		if mail == nil {
			continue
		}
		for dst, box := range mail.box {
			for i := range box[:cap(box)] {
				f(dst, &box[:cap(box)][i])
			}
		}
	}
}

// TestResetClearsPayloadState checks payload queues, loads, and delivered
// references are dropped by Reset.
func TestResetClearsPayloadState(t *testing.T) {
	EachForm(t, 2, func(t *testing.T, c *Network) {
		defer c.Close()
		vec := []int64{1, 2, 3}
		c.SendPayload(0, 1, 3, &vec)
		mail := c.Flush()
		if got := len(mail.PayloadsFrom(1, 0)); got != 1 {
			t.Fatalf("delivered %d payloads, want 1", got)
		}
		if c.Words() != 3 || c.Rounds() != 3 {
			t.Fatalf("payload flush charged %d words / %d rounds, want 3 / 3", c.Words(), c.Rounds())
		}
		c.Reset()
		if got := c.PendingWords(0); got != 0 {
			t.Fatalf("pending words after Reset = %d, want 0", got)
		}
		if mail.PayloadsFrom(1, 0) != nil {
			t.Fatalf("Reset left a delivered payload readable")
		}
		eachEntry(c, func(dst int, e *mailEntry) {
			for _, p := range e.ps[:cap(e.ps)] {
				if p != nil {
					t.Fatalf("Reset left a delivered payload reference behind at %d←%d", dst, e.src)
				}
			}
		})
	})
}

// TestTrimReleasesEverything checks the aggressive release used by
// session Trim — the flat link records go, the network is newborn (sparse
// storage) again — and that the network stays usable afterwards.
func TestTrimReleasesEverything(t *testing.T) {
	c := NewDense(t, 2)
	defer c.Close()
	c.SendVec(0, 1, make([]Word, 128))
	vec := []int64{1}
	c.SendPayload(1, 0, 1, &vec)
	c.Flush()
	c.Trim()
	if c.dense != nil || c.mails != [2]*Mail{} {
		t.Fatalf("Trim kept flat link records or mailboxes")
	}
	if !c.SparseLinks() || len(c.sparse[0]) != 0 {
		t.Fatalf("Trim did not return the network to the newborn sparse form")
	}
	// Still usable: a fresh send/flush cycle works.
	c.Send(0, 1, 42)
	mail := c.Flush()
	if got := mail.From(1, 0); len(got) != 1 || got[0] != 42 {
		t.Fatalf("post-Trim delivery = %v, want [42]", got)
	}
}

// TestSendAfterResetWithPendingTraffic guards the touch-stamp generation:
// a Reset (or Trim) that discards unflushed traffic must not leave its
// links' dedup stamps armed, or the next run's sends on those links would
// be silently dropped and uncharged.
func TestSendAfterResetWithPendingTraffic(t *testing.T) {
	c := New(2)
	defer c.Close()
	c.Send(0, 1, 11) // registered for the upcoming flush...
	c.Reset()        // ...which never happens
	c.Send(0, 1, 42)
	vec := []int64{7}
	c.SendPayload(1, 0, 1, &vec)
	mail := c.Flush()
	if got := mail.From(1, 0); len(got) != 1 || got[0] != 42 {
		t.Fatalf("post-Reset send delivered %v, want [42]", got)
	}
	if got := mail.PayloadsFrom(0, 1); len(got) != 1 {
		t.Fatalf("post-Reset payload dropped")
	}
	if c.Rounds() != 1 || c.Words() != 2 {
		t.Fatalf("post-Reset flush charged %d rounds / %d words, want 1 / 2", c.Rounds(), c.Words())
	}

	c.Send(0, 1, 5)
	c.Trim() // same hazard through the aggressive release
	c.Send(0, 1, 6)
	mail = c.Flush()
	if got := mail.From(1, 0); len(got) != 1 || got[0] != 6 {
		t.Fatalf("post-Trim send delivered %v, want [6]", got)
	}
}

// TestPayloadChargingMatchesWords checks that analytic loads and real
// words on the same link add up in the flush accounting, and that
// an analytic load on a self-link stays free.
func TestPayloadChargingMatchesWords(t *testing.T) {
	c := New(3)
	defer c.Close()
	c.Send(0, 1, 1)
	c.Send(0, 1, 2)
	c.SendPayload(0, 1, 5, nil) // mixed-plane link: 2 real + 5 analytic
	c.SendPayload(2, 2, 99, nil)
	c.Flush()
	if c.Rounds() != 7 {
		t.Fatalf("rounds = %d, want 7 (max link load 2+5; self-link free)", c.Rounds())
	}
	if c.Words() != 7 {
		t.Fatalf("words = %d, want 7", c.Words())
	}
}

// TestPayloadFIFOAndLifetime checks payload delivery order and the
// two-flush Mail lifetime.
func TestPayloadFIFOAndLifetime(t *testing.T) {
	c := NewDense(t, 2)
	defer c.Close()
	a, b := []int64{1}, []int64{2}
	c.SendPayload(0, 1, 1, &a)
	c.SendPayload(0, 1, 1, &b)
	mail := c.Flush()
	got := mail.PayloadsFrom(1, 0)
	if len(got) != 2 || (*(got[0].(*[]int64)))[0] != 1 || (*(got[1].(*[]int64)))[0] != 2 {
		t.Fatalf("payload FIFO broken: %v", got)
	}
	// The next flush must not disturb this mail (double buffering)...
	c.Flush()
	if again := mail.PayloadsFrom(1, 0); len(again) != 2 {
		t.Fatalf("payloads invalidated one flush early")
	}
	// ...but the second-next reuses its buffers.
	c.SendPayload(0, 1, 1, &a)
	c.Flush()
	if again := mail.PayloadsFrom(1, 0); len(again) != 1 {
		t.Fatalf("second-next flush did not recycle the payload buffer")
	}
}
