package resp

import "strconv"

// Interned shared replies: the hot constants of the serving path are
// pre-encoded once so the steady state emits them with a single buffer
// copy — no formatting, no per-reply bytes. kiwi does the same in its
// shared-object table; here the table is just package-level slices.
var (
	okReply   = []byte("+OK\r\n")
	pongReply = []byte("+PONG\r\n")
)

// smallIntCacheSize bounds the pre-encoded integer-reply cache. Core
// numbers are small (a vertex's coreness rarely exceeds a few hundred),
// so almost every CORE.GET/CORE.MGET element reply hits this table.
const smallIntCacheSize = 1024

// intReplies[n] is the full ":<n>\r\n" frame for 0 <= n < 1024.
var intReplies = func() [smallIntCacheSize][]byte {
	var t [smallIntCacheSize][]byte
	for i := range t {
		t[i] = []byte(":" + strconv.Itoa(i) + "\r\n")
	}
	return t
}()
