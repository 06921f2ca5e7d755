"""Count tables as nested dicts, for comparing them with reference folds,
and count tables edited by hand, for readers that must refuse them."""

import dataclasses


def as_dicts(table):
    """{key columns: {value columns: count}}, keyed by the table's own
    integers."""
    nkeys = table.nkeys
    out = {}
    for *row, count in zip(*(col.tolist() for col in table.columns),
                           table.counts.tolist()):
        out.setdefault(tuple(row[:nkeys]), {})[tuple(row[nkeys:])] = count
    return out


def counts_at(table, *key):
    """{value columns: count} over ``table.rows(*key)``, summed: a key
    prefix spans several keys, and a value may occur once in each."""
    where = table.rows(*key)
    values = zip(*(col[where].tolist()
                   for col in table.columns[table.nkeys:]))
    out = {}
    for value, count in zip(values, table.counts[where].tolist()):
        out[value] = out.get(value, 0) + count
    return out


def with_entry(table, column, row, value):
    """A copy of table with entry ``row`` of ``table.columns[column]`` set
    to value, outside any range guard of the fold."""
    columns = list(table.columns)
    columns[column] = columns[column].copy()
    columns[column][row] = value
    return dataclasses.replace(table, columns=tuple(columns))


class TableRead(Exception):
    """Raised by ``UnreadableTable`` on any attribute access."""


class UnreadableTable:
    """A stand-in table for readers that must refuse their input before
    they read the table: any attribute access raises ``TableRead``."""

    def __getattr__(self, name):
        raise TableRead(name)
