//go:build go1.23

package jrt

import "iter"

// coro runs a thread body as a coroutine: resume runs it until it
// calls suspend or returns, and suspend hands control back to the
// resumer. A switch costs two coroutine switches and no allocation.
// A panic that escapes the body is re-raised by resume.
type coro struct {
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
}

// init prepares body to run at the first resume.
func (c *coro) init(body func()) {
	c.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.suspend = yield
		body()
	})
}
