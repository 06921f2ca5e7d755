"""Count tables as nested dicts, for comparing them with reference folds."""


def as_dicts(table):
    """{key columns: {value columns: count}}, keyed by the table's own
    integers."""
    nkeys = len(table.radices)
    out = {}
    for *row, count in zip(*(col.tolist() for col in table.columns),
                           table.counts.tolist()):
        out.setdefault(tuple(row[:nkeys]), {})[tuple(row[nkeys:])] = count
    return out


class TableRead(Exception):
    """Raised by ``UnreadableTable`` on any attribute access."""


class UnreadableTable:
    """A stand-in table for readers that must refuse their input before
    they read the table: any attribute access raises ``TableRead``."""

    def __getattr__(self, name):
        raise TableRead(name)
