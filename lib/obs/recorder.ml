let note ?(fields = []) op = if Sink.recorder_armed () then Trace.ring_note op fields
let dump = Trace.ring_dump
