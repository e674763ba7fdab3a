package smartsock

// ReleaseIdle runs the idle release now, as if idleRelease had passed
// since the client's last exchange.
func (c *Client) ReleaseIdle() { c.release() }
