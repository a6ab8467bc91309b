"""Fault plans: deterministic schedules of injected failures.

A plan is a list of :class:`FaultEntry` items, each naming one
injection: *what* to do (``channel-drop``, ``iago-retval``, ...),
*where* (a channel route, an external, an enclave color) and *when*
(the n-th matching event).  Plans come from two places:

* :meth:`FaultPlan.parse` — the explicit ``--inject`` grammar::

      channel-drop:U->green:spawn:2     drop the 2nd spawn on U->green
      channel-corrupt:*:value:1         corrupt the 1st value anywhere
      iago-retval:malloc:1:replay       replay malloc's previous result
      enclave-crash:green:1             AEX the green worker, no restart
      enclave-restart:*:2               crash+replay at the 2nd delivery
      net-reset:shard0:3                reset shard0's link, 3rd socket op
      net-slow:*:2:50                   50ms stall at the 2nd socket op
      net-short:shard1:1                short write/read on shard1's link
      net-garble:shard0:4               truncate/garble received bytes

  Entries are comma-separated; ``*`` wildcards a route endpoint, a
  message kind, an external or a color.

* :meth:`FaultPlan.random` — a seeded PRNG draws a small schedule, the
  engine of the chaos differential sweep.  Same seed, same plan, same
  run: every injection is reproducible from its seed alone.

Matching is single-shot: an entry fires exactly once, at its n-th
matching event, then stays inert.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from repro.errors import PrivagicError

#: Channel-adversary actions (the in-flight message surface).
CHANNEL_ACTIONS = ("channel-drop", "channel-dup", "channel-corrupt",
                   "channel-reorder")
#: Enclave lifetime actions (simulated AEX).
ENCLAVE_ACTIONS = ("enclave-crash", "enclave-restart")
#: The untrusted-external return-value action.
IAGO_ACTION = "iago-retval"
#: Socket-level actions of the netchaos interposition layer
#: (repro.faults.netchaos): applied to a router<->shard or
#: client<->router stream, selected by endpoint label ("shard0",
#: "client", or "*").
NET_ACTIONS = ("net-reset", "net-slow", "net-short", "net-garble")
#: How an Iago injection perturbs an integer return value.
IAGO_MODES = ("offset", "huge", "negative", "zero", "replay")
#: Protocol message kinds a channel entry can select on.
MESSAGE_KINDS = ("spawn", "value", "token")

#: Externals safe for *randomly generated* Iago entries: every one is
#: postcondition-guarded (repro.runtime.iago.GUARDS), so a corrupted
#: return is always detected.  Unguarded externals (printf & co.) can
#: be targeted explicitly, where an unused return makes the corruption
#: harmless by construction.
RANDOM_IAGO_TARGETS = ("malloc", "__privagic_alloc", "strlen",
                       "memcpy", "memset", "strncpy")


class FaultSpecError(PrivagicError):
    """A ``--inject`` spec that does not parse."""


class FaultEntry:
    """One scheduled injection (see module docstring for the grammar).

    ``matched`` counts events seen so far; the entry fires when it
    reaches ``nth`` and then never again (``fired``).
    """

    __slots__ = ("action", "src", "dst", "msg_kind", "target", "nth",
                 "mode", "matched", "fired")

    def __init__(self, action: str, src: str = "*", dst: str = "*",
                 msg_kind: str = "*", target: str = "*", nth: int = 1,
                 mode: str = "offset"):
        if nth < 1:
            raise FaultSpecError(
                f"{action}: occurrence index must be >= 1, got {nth}")
        self.action = action
        self.src = src
        self.dst = dst
        self.msg_kind = msg_kind
        self.target = target
        self.nth = nth
        self.mode = mode
        self.matched = 0
        self.fired = False

    def spec(self) -> str:
        """Render back to the ``--inject`` grammar."""
        if self.action in CHANNEL_ACTIONS:
            if self.src == "*" and self.dst == "*":
                route = "*"
            else:
                route = f"{self.src}->{self.dst}"
            return f"{self.action}:{route}:{self.msg_kind}:{self.nth}"
        if self.action == IAGO_ACTION:
            return f"{self.action}:{self.target}:{self.nth}:{self.mode}"
        if self.action == "net-slow":
            return (f"{self.action}:{self.target}:{self.nth}"
                    f":{self.mode}")
        return f"{self.action}:{self.target}:{self.nth}"

    def __repr__(self) -> str:
        state = "fired" if self.fired else f"matched={self.matched}"
        return f"<FaultEntry {self.spec()} {state}>"


def _parse_nth(action: str, text: str) -> int:
    try:
        nth = int(text)
    except ValueError:
        raise FaultSpecError(
            f"{action}: occurrence index {text!r} is not an integer")
    if nth < 1:
        raise FaultSpecError(
            f"{action}: occurrence index must be >= 1, got {nth}")
    return nth


def _parse_route(action: str, text: str):
    if text == "*":
        return "*", "*"
    if "->" not in text:
        raise FaultSpecError(
            f"{action}: route {text!r} is neither '*' nor 'SRC->DST'")
    src, _, dst = text.partition("->")
    if not src or not dst:
        raise FaultSpecError(
            f"{action}: route {text!r} has an empty endpoint")
    return src, dst


def _parse_entry(text: str) -> FaultEntry:
    parts = text.split(":")
    action = parts[0]
    if action in CHANNEL_ACTIONS:
        if len(parts) != 4:
            raise FaultSpecError(
                f"{action}: expected {action}:ROUTE:KIND:NTH, "
                f"got {text!r}")
        src, dst = _parse_route(action, parts[1])
        kind = parts[2]
        if kind != "*" and kind not in MESSAGE_KINDS:
            raise FaultSpecError(
                f"{action}: unknown message kind {kind!r} "
                f"(expected one of {', '.join(MESSAGE_KINDS)} or '*')")
        return FaultEntry(action, src=src, dst=dst, msg_kind=kind,
                          nth=_parse_nth(action, parts[3]))
    if action == IAGO_ACTION:
        if len(parts) not in (3, 4):
            raise FaultSpecError(
                f"{action}: expected {action}:EXTERNAL:NTH[:MODE], "
                f"got {text!r}")
        mode = parts[3] if len(parts) == 4 else "offset"
        if mode not in IAGO_MODES:
            raise FaultSpecError(
                f"{action}: unknown mode {mode!r} "
                f"(expected one of {', '.join(IAGO_MODES)})")
        return FaultEntry(action, target=parts[1],
                          nth=_parse_nth(action, parts[2]), mode=mode)
    if action in ENCLAVE_ACTIONS:
        if len(parts) != 3:
            raise FaultSpecError(
                f"{action}: expected {action}:COLOR:NTH, got {text!r}")
        return FaultEntry(action, target=parts[1],
                          nth=_parse_nth(action, parts[2]))
    if action in NET_ACTIONS:
        if action == "net-slow":
            if len(parts) not in (3, 4):
                raise FaultSpecError(
                    f"{action}: expected "
                    f"{action}:ENDPOINT:NTH[:MS], got {text!r}")
            ms = parts[3] if len(parts) == 4 else "25"
            try:
                if int(ms) < 1:
                    raise ValueError
            except ValueError:
                raise FaultSpecError(
                    f"{action}: delay {ms!r} is not a positive "
                    f"millisecond count")
            return FaultEntry(action, target=parts[1],
                              nth=_parse_nth(action, parts[2]),
                              mode=ms)
        if len(parts) != 3:
            raise FaultSpecError(
                f"{action}: expected {action}:ENDPOINT:NTH, "
                f"got {text!r}")
        return FaultEntry(action, target=parts[1],
                          nth=_parse_nth(action, parts[2]))
    known = ", ".join(CHANNEL_ACTIONS + (IAGO_ACTION,)
                      + ENCLAVE_ACTIONS + NET_ACTIONS)
    raise FaultSpecError(
        f"unknown fault action {action!r} (expected one of {known})")


class FaultPlan:
    """A deterministic schedule of fault injections."""

    def __init__(self, entries: Iterable[FaultEntry], seed: int = 0):
        self.entries: List[FaultEntry] = list(entries)
        self.seed = seed

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a comma-separated ``--inject`` spec."""
        entries = [
            _parse_entry(part.strip())
            for part in spec.split(",") if part.strip()]
        if not entries:
            raise FaultSpecError("empty fault spec")
        return cls(entries, seed=seed)

    @classmethod
    def requested(cls, inject: Optional[str], seed: Optional[int],
                  program) -> Optional["FaultPlan"]:
        """The plan an ``--inject SPEC`` / ``--chaos-seed SEED`` pair
        asks for (``None`` for an honest run): an explicit spec wins,
        a bare seed draws a random plan over ``program``'s enclave
        colors."""
        if inject is not None:
            return cls.parse(inject, seed=seed or 0)
        if seed is None:
            return None
        colors = sorted(set(program.chunk_colors.values())
                        - {program.untrusted})
        return cls.random(seed, colors, untrusted=program.untrusted)

    @classmethod
    def random(cls, seed: int, colors: Sequence[str],
               untrusted: str = "U",
               externals: Optional[Sequence[str]] = None,
               count: Optional[int] = None) -> "FaultPlan":
        """Draw a reproducible random plan from ``seed``.

        ``colors`` are the enclave colors of the program under test
        (used for routes and crash targets); ``untrusted`` joins them
        as a route endpoint only.  Iago entries draw from
        ``externals`` (default: the guarded set, so random corruption
        is always detectable).
        """
        rng = random.Random(seed)
        colors = list(colors)
        nodes = [untrusted] + colors
        iago_pool = list(externals if externals is not None
                         else RANDOM_IAGO_TARGETS)
        actions = list(CHANNEL_ACTIONS)
        if iago_pool:
            actions.append(IAGO_ACTION)
        if colors:
            actions.extend(ENCLAVE_ACTIONS)
        entries: List[FaultEntry] = []
        for _ in range(count if count is not None
                       else rng.randint(1, 3)):
            action = rng.choice(actions)
            if action in CHANNEL_ACTIONS:
                src = rng.choice(nodes + ["*"])
                dst = rng.choice([n for n in nodes + ["*"]
                                  if n != src or n == "*"])
                kind = rng.choice(MESSAGE_KINDS + ("*",))
                entries.append(FaultEntry(
                    action, src=src, dst=dst, msg_kind=kind,
                    nth=rng.randint(1, 4)))
            elif action == IAGO_ACTION:
                entries.append(FaultEntry(
                    action, target=rng.choice(iago_pool),
                    nth=rng.randint(1, 3),
                    mode=rng.choice(IAGO_MODES)))
            else:
                entries.append(FaultEntry(
                    action, target=rng.choice(colors),
                    nth=rng.randint(1, 3)))
        return cls(entries, seed=seed)

    @classmethod
    def random_net(cls, seed: int, shards: int,
                   include_client: bool = False,
                   count: Optional[int] = None) -> "FaultPlan":
        """Draw a reproducible socket-chaos plan from ``seed``.

        Entries target the ``shard{i}`` links of a sharded router
        (plus the ``client`` side when ``include_client``); the sweep
        in :mod:`repro.faults.netchaos` keeps the default shard-only
        targeting so the admitted operation stream stays comparable
        to the clean run.  The ``*`` wildcard matches *every* wrapped
        stream at runtime — client links included — so it is only
        drawn under ``include_client``; shard-only plans name their
        shard explicitly.
        """
        rng = random.Random(seed)
        endpoints = [f"shard{i}" for i in range(shards)]
        if include_client:
            endpoints.append("client")
            endpoints.append("*")
        entries: List[FaultEntry] = []
        for _ in range(count if count is not None
                       else rng.randint(1, 3)):
            action = rng.choice(NET_ACTIONS)
            target = rng.choice(endpoints)
            nth = rng.randint(1, 6)
            if action == "net-slow":
                entries.append(FaultEntry(
                    action, target=target, nth=nth,
                    mode=str(rng.choice((10, 25, 50, 100)))))
            else:
                entries.append(FaultEntry(action, target=target,
                                          nth=nth))
        return cls(entries, seed=seed)

    def spec(self) -> str:
        return ",".join(entry.spec() for entry in self.entries)

    def fired(self) -> List[FaultEntry]:
        return [entry for entry in self.entries if entry.fired]

    def reset(self) -> None:
        """Clear the matched/fired state so the plan can drive a
        fresh run."""
        for entry in self.entries:
            entry.matched = 0
            entry.fired = False

    def __repr__(self) -> str:
        return f"<FaultPlan seed={self.seed} [{self.spec()}]>"
