// placeholder
