package resp

// Command is the reusable decoded form of one client command — the
// caller-owned scratch that Reader.ReadCommand and Parser.Parse fill
// instead of allocating per frame. A connection keeps one Command for its
// whole lifetime; after warm-up the steady-state read path performs zero
// allocations per command.
//
// # Aliasing contract
//
// Args and every slice in it are views into storage recycled by the next
// ReadCommand/Parse call on the same Command (the internal arena for the
// streaming Reader, the caller's query buffer for Parser). They are valid
// only until that next call: a caller that needs an argument beyond
// dispatch must copy it out. TestCommandScratchReuse pins this contract.
type Command struct {
	// Args holds the command's arguments, name first. Valid until the
	// next ReadCommand/Parse call that fills this Command.
	Args [][]byte

	// arena is the flat byte store for the streaming Reader: every
	// argument's bytes are appended here back to back, so one command
	// costs at most one (amortized, usually zero) allocation however many
	// arguments it carries.
	arena []byte
	// ends[i] is the exclusive end offset of argument i in arena
	// (argument i starts at ends[i-1]). Kept separate from Args because
	// the arena may be reallocated mid-parse by a growing command;
	// offsets survive that, slice headers would not.
	ends []int
}

// arenaShrinkCap bounds how much arena capacity one oversized command
// (up to maxBulkLen per argument) leaves pinned on an idle connection:
// above it, the next read restarts from a fresh small arena.
const arenaShrinkCap = 64 << 10

// reset prepares the Command for a fresh frame, recycling its storage.
func (c *Command) reset() {
	if cap(c.arena) > arenaShrinkCap {
		c.arena = nil
	}
	c.arena = c.arena[:0]
	c.ends = c.ends[:0]
	c.Args = c.Args[:0]
}

// grow ensures the arena has room for n more bytes and returns the
// (possibly reallocated) writable tail of length n.
func (c *Command) grow(n int) []byte {
	need := len(c.arena) + n
	if need > cap(c.arena) {
		newCap := 2 * cap(c.arena)
		if newCap < need {
			newCap = need
		}
		if newCap < 256 {
			newCap = 256
		}
		na := make([]byte, len(c.arena), newCap)
		copy(na, c.arena)
		c.arena = na
	}
	c.arena = c.arena[:need]
	return c.arena[need-n : need]
}

// appendArg copies b into the arena and records it as the next argument.
func (c *Command) appendArg(b []byte) {
	copy(c.grow(len(b)), b)
	c.ends = append(c.ends, len(c.arena))
}

// materialize rebuilds Args from the (now final) arena and offsets.
func (c *Command) materialize() {
	if cap(c.Args) < len(c.ends) {
		c.Args = make([][]byte, len(c.ends))
	}
	c.Args = c.Args[:len(c.ends)]
	start := 0
	for i, end := range c.ends {
		c.Args[i] = c.arena[start:end:end]
		start = end
	}
}
