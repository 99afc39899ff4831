"""Shipped netlists and pulse schedules (reconstruction data files)."""

from importlib import resources

# the shipped scenario of each built-in behavioral circuit
SCHEDULES = {"ndro": "tb_fig7.sched", "mndro-rst": "tb_fig8.sched", "mndro-dec": "tb_fig10.sched"}


def load_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def names() -> list[str]:
    root = resources.files(__package__)
    return sorted(
        entry.name
        for entry in root.iterdir()
        if entry.name.endswith((".cir", ".sched"))
    )
