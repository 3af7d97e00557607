"""Unit and property tests for the trace sinks."""

import json

from hypothesis import given, settings, strategies as st

from repro.trace import (
    CountingSink,
    FilterSink,
    JsonlFileSink,
    RingBufferSink,
    TraceEvent,
    TraceSink,
)


def ev(cycle=0, layer="noc", event="send", tile=None, addr=None, **attrs):
    return TraceEvent(
        cycle=cycle, layer=layer, event=event, tile=tile, addr=addr,
        attrs=attrs,
    )


def test_ring_buffer_keeps_newest_and_counts_drops():
    sink = RingBufferSink(capacity=3)
    for i in range(5):
        sink.emit(ev(cycle=i))
    assert sink.emitted == 5
    assert sink.dropped == 2
    assert [e.cycle for e in sink] == [2, 3, 4]
    assert len(sink) == 3
    sink.close()


def test_ring_buffer_unbounded_when_capacity_none():
    sink = RingBufferSink(capacity=None)
    for i in range(1000):
        sink.emit(ev(cycle=i))
    assert len(sink) == 1000
    assert sink.dropped == 0


def test_list_and_counting_sinks():
    # an unbounded ring is the in-memory list of every event
    lst, cnt = RingBufferSink(capacity=None), CountingSink()
    for i in range(4):
        lst.emit(ev(cycle=i))
        cnt.emit(ev(cycle=i))
    assert [e.cycle for e in lst] == [0, 1, 2, 3]
    assert cnt.count == 4


def test_sinks_satisfy_protocol():
    for sink in (RingBufferSink(), CountingSink(),
                 FilterSink(RingBufferSink(None))):
        assert isinstance(sink, TraceSink)


def test_jsonl_file_sink_round_trips_events(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = [
        ev(cycle=3, tile=1, addr=0x2F, msg_type="GetX", flits=5, hops=2),
        ev(cycle=9, layer="protocol", event="transition", tile=0, addr=7,
           **{"from": "S", "to": "M", "cause": "write_commit"}),
    ]
    with JsonlFileSink(path) as sink:
        for e in events:
            sink.emit(e)
    lines = [json.loads(x) for x in path.read_text().splitlines()]
    assert [TraceEvent.from_dict(d) for d in lines] == events
    # fixed fields lead every record, in schema order
    assert list(lines[0])[:5] == ["cycle", "layer", "event", "tile", "addr"]


def test_filter_sink_dimensions():
    inner = RingBufferSink(None)
    sink = FilterSink(inner, addrs=[7], events=["send", "transition"])
    sink.emit(ev(event="send", addr=7))          # passes
    sink.emit(ev(event="send", addr=8))          # wrong addr
    sink.emit(ev(event="deliver", addr=7))       # wrong event
    sink.emit(ev(event="transition", addr=None))  # addr filter active: None fails
    assert sink.seen == 4 and sink.forwarded == 1
    assert [e.addr for e in inner] == [7]


def test_filter_sink_disabled_dimension_passes_none_fields():
    inner = RingBufferSink(None)
    sink = FilterSink(inner, events=["marker"])
    sink.emit(ev(layer="run", event="marker", name="reset_stats"))
    assert [e.event for e in inner] == ["marker"]


_layers = st.sampled_from(["protocol", "noc", "cache", "run"])
_events = st.sampled_from(["send", "deliver", "transition", "fill", "evict"])
_opt_int = st.one_of(st.none(), st.integers(0, 15))
_event_strategy = st.builds(
    lambda c, la, e, t, a: ev(cycle=c, layer=la, event=e, tile=t, addr=a),
    st.integers(0, 100), _layers, _events, _opt_int, _opt_int,
)
_opt_filter = st.one_of(st.none(), st.lists(st.integers(0, 15), max_size=4))
_opt_events = st.one_of(
    st.none(), st.lists(_events, max_size=3), st.lists(_layers, max_size=3)
)


@given(
    events=st.lists(_event_strategy, max_size=60),
    addrs=_opt_filter,
    tiles=_opt_filter,
    names=st.one_of(st.none(), st.lists(_events, max_size=3)),
    layers=st.one_of(st.none(), st.lists(_layers, max_size=3)),
)
@settings(max_examples=200, deadline=None)
def test_filtered_stream_is_subsequence_of_unfiltered(
    events, addrs, tiles, names, layers
):
    unfiltered = RingBufferSink(None)
    inner = RingBufferSink(None)
    filtered = FilterSink(
        inner, addrs=addrs, tiles=tiles, events=names, layers=layers
    )
    for e in events:
        unfiltered.emit(e)
        filtered.emit(e)
    # every forwarded event matches every active dimension...
    for e in inner:
        if addrs is not None:
            assert e.addr in set(addrs)
        if tiles is not None:
            assert e.tile in set(tiles)
        if names is not None:
            assert e.event in set(names)
        if layers is not None:
            assert e.layer in set(layers)
    # ...and the filtered stream is an ordered subsequence of the full one
    it = iter(unfiltered)
    for e in inner:
        assert e in it  # advances `it`: preserves relative order
    assert filtered.seen == len(events)
    assert filtered.forwarded == len(inner)
