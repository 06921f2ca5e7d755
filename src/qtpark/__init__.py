"""Exact q,t-enumeration of labeled lattice paths and their symmetric
function identities."""
