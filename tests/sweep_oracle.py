"""A reference for the stateless sweep: the loop over every target.

:func:`repro.scanners.sweep.sweep_live` probes only a sequence's live
targets, which it finds through the permutation's inverse
(``among`` / ``after`` / ``positions_of``).  This reference shares none
of that: it steps the sequence forward, position by position as ZMap's
sender does — a walk through the cyclic group's generator, a list
entry by entry — and yields every target sent to that is live or that
a reply still queued in the receiver's inbox belongs to.

:func:`use_reference_sweep` puts it in place of the sweep's target
source, so everything else — delivery, retries, counters, metrics — is
the product's, and two sweeps of one world, one as shipped and one on
the reference, must leave identical records, ``TrafficStats``, metrics
and virtual clock.
"""

from repro.scanners import sweep as sweep_module
from repro.scanners.sweep import PrefixWalk

__all__ = ["each_target", "use_reference_sweep"]


def each_target(sequence, sent_to, live, pending):
    """By position, every target of ``sequence`` sent to that is in
    ``live`` — or any target sent to while ``pending`` is non-empty."""
    if isinstance(sequence, PrefixWalk):
        space = sequence.space
        targets = (
            (position, space.address_at(index))
            for position, index in sequence.permutation.iter_walk(sequence.walk)
        )
    else:
        targets = enumerate(sequence.targets, sequence.base)
    for position, address in targets:
        value = address.value
        if sent_to(value) and (pending or value in live):
            yield position, address


def use_reference_sweep(monkeypatch):
    """From here on every sweep takes its targets from :func:`each_target`.

    Returns a list that grows by one per sweep that does.
    """
    sweeps = []

    def reference(*args):
        sweeps.append(args)
        return each_target(*args)

    monkeypatch.setattr(sweep_module, "_live_targets", reference)
    return sweeps
